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
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .experiments import (
    _PRESET_SIZES,
    BenchmarkConfig,
    ZRule,
    load_spambase,
    run_benchmark,
)
from .game import FinitePrior, discretize_prior
from .serialize import (
    ConfigError,
    _array,
    _typed,
    game_from_jsonable,
    prior_from_jsonable,
    profile_to_jsonable,
    solver_config_from_jsonable,
)
from .solvers import (
    ConfigurationError,
    SolverError,
    SolverTrace,
    TraceRecord,
    assumption_probe,
    equilibrium_residual,
    extragradient_reference,
    pg_rbc,
    prg_ie,
    step_warnings,
)

ALGORITHMS = ("prg-ie", "pg-rbc", "extragradient")
DEFAULT_DISCRETIZE_K = 16


def _load_json(path) -> tuple[dict, str]:
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
    return doc, hashlib.sha256(text.encode()).hexdigest()


def _write_metadata(out_dir: Path, config_hash: str, seed: int) -> None:
    meta = {"config_sha256": config_hash, "seed": seed, "version": __version__}
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
    doc, config_hash = _load_json(args.config)
    spec = game_from_jsonable(doc.get("game"), "game")
    solver = solver_config_from_jsonable(doc.get("solver", {"max_iters": 10_000, "gamma": 0.01}))
    if args.seed is not None:
        solver = replace(solver, seed=args.seed)
    algo = args.algo or doc.get("algorithm")
    if algo not in ALGORITHMS:
        raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {algo!r}")
    prior = _finite_prior(doc, spec.n, solver.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if algo == "extragradient":
        tol = solver.tol if solver.tol > 0 else 1e-8
        profile = extragradient_reference(spec, prior, tol=tol, max_iters=solver.max_iters)
        record = TraceRecord(0, equilibrium_residual(profile, prior, spec), None, 0.0)
        trace = SolverTrace([record], profile, converged=True)
    else:
        run = prg_ie if algo == "prg-ie" else pg_rbc
        trace = run(spec, prior, solver)
    trace.to_csv(out_dir / "trace.csv")
    (out_dir / "profile.json").write_text(
        json.dumps(profile_to_jsonable(trace.final_profile), indent=2, allow_nan=False) + "\n"
    )
    _write_metadata(out_dir, config_hash, solver.seed)
    print(f"final residual: {trace.iterations[-1].residual:.6e}")
    return 0


def cmd_probe(args) -> int:
    doc, config_hash = _load_json(args.config)
    spec = game_from_jsonable(doc.get("game"), "game")
    probe = doc.get("probe", {})
    trials = _typed(probe.get("trials", 64), int, "probe.trials")
    if trials < 2:
        raise ConfigError("probe.trials: expected an integer >= 2")
    seed = args.seed if args.seed is not None else _typed(probe.get("seed", 0), int, "probe.seed")
    prior = _finite_prior(doc, spec.n, seed)
    diag = assumption_probe(spec, prior, trials=trials, seed=seed)

    payload = asdict(diag)
    gamma = doc.get("solver", {}).get("gamma")
    if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
        gamma = None
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


def _benchmark_config(doc: dict, args) -> BenchmarkConfig:
    params = dict(_PRESET_SIZES[args.scale or "desk"])
    if not args.scale:  # the config's sizes apply without a preset
        params.update({key: _typed(doc[key], int, key) for key in params if key in doc})

    priors_doc = doc.get("priors")
    if not isinstance(priors_doc, list) or not priors_doc:
        raise ConfigError("priors: expected a nonempty list of prior objects")
    priors = tuple(prior_from_jsonable(p, f"priors[{i}]") for i, p in enumerate(priors_doc))

    z_doc = doc.get("z_rule", {"kind": "flip"})
    kind = z_doc.get("kind", "flip") if isinstance(z_doc, dict) else None
    if kind not in ("flip", "zero", "custom"):
        raise ConfigError(f"z_rule.kind: expected flip|zero|custom, got {kind!r}")
    vector = _array(z_doc, "vector", "z_rule", 1) if kind == "custom" else None
    params["z_rule"] = ZRule(kind, vector)

    # the fields not set above have defaults; a config value has its default's type
    for f in fields(BenchmarkConfig):
        if f.name not in doc or f.name in params or f.name == "prior_grid":
            continue
        value, default = doc[f.name], f.default
        if not isinstance(default, tuple):
            params[f.name] = _typed(value, type(default), f.name)
        elif not isinstance(value, list):
            raise ConfigError(f"{f.name}: expected a list, got {value!r}")
        else:
            params[f.name] = tuple(
                _typed(v, type(default[0]), f"{f.name}[{i}]") for i, v in enumerate(value)
            )
    if args.seed is not None:
        params["seed"] = args.seed
    try:
        return BenchmarkConfig(prior_grid=priors, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"benchmark config: {exc}") from None


def cmd_benchmark(args) -> int:
    doc, config_hash = _load_json(args.config)
    config = _benchmark_config(doc, args)

    dataset_path = doc.get("dataset")
    if dataset_path is None:
        data_dir = os.environ.get("BAYESGAME_DATA")
        if not data_dir:
            raise ConfigError(
                "dataset: no path in config and BAYESGAME_DATA is not set"
            )
        dataset_path = os.path.join(data_dir, "spambase.data")
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
    _write_metadata(out_dir, config_hash, config.seed)
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

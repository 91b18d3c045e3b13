#!/usr/bin/env python3
"""Run the desk-scale benchmark preset and write results.csv / aggregate.json.

The dataset path comes from the first argument, or $BAYESGAME_DATA/spambase.data.
A high-variance Gaussian prior is used by default; pass --all-priors for the
Gaussian/Gamma/lognormal sweep.

Usage: python scripts/run_desk_benchmark.py [dataset.csv] [--out DIR] [--seed S]
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bayesgame.experiments import desk_config, load_spambase, run_benchmark  # noqa: E402
from bayesgame.game import GammaPrior, GaussianPrior, LogNormalPrior  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("dataset", nargs="?", default=None)
    parser.add_argument("--out", default="desk_results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--all-priors", action="store_true")
    args = parser.parse_args()

    dataset = args.dataset
    if dataset is None:
        data_dir = os.environ.get("BAYESGAME_DATA")
        if not data_dir:
            print("no dataset argument and BAYESGAME_DATA unset", file=sys.stderr)
            return 1
        dataset = os.path.join(data_dir, "spambase.data")
    data = load_spambase(dataset)
    print(f"loaded {len(data)} rows from {dataset}")

    priors = [GaussianPrior(mean=1.0, std=4.0)]
    if args.all_priors:
        priors += [GammaPrior(shape=1.0, scale=1.0), LogNormalPrior(mu=0.0, sigma=1.0)]
    config = desk_config(priors, seed=args.seed)
    result = run_benchmark(config, data, workers=args.workers)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "results.csv")
    (out / "aggregate.json").write_text(
        json.dumps(result.to_json(), indent=2, allow_nan=False) + "\n"
    )
    for agg in result.aggregates:
        mean = "nan" if agg["mean_rmse"] is None else f"{agg['mean_rmse']:.4f}"
        print(f"{agg['method']:<11} {agg['prior_params']:<24} rmse={mean} ({agg['config']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

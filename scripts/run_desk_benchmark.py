#!/usr/bin/env python3
"""Run the desk-scale benchmark preset and write results.csv / aggregate.json.

The dataset path comes from the first argument, or $BAYESGAME_DATA/spambase.data.
A high-variance Gaussian prior is used by default; pass --all-priors for the
Gaussian/Gamma/lognormal sweep.  The run is ``bayesgame benchmark --scale desk``
on a config written to DIR/config.json, so its outputs and exit code are the
command's.

Usage: python scripts/run_desk_benchmark.py [dataset.csv] [--out DIR] [--seed S]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bayesgame import cli  # noqa: E402
from bayesgame.game import GammaPrior, GaussianPrior, LogNormalPrior  # noqa: E402
from bayesgame.serialize import prior_to_jsonable  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("dataset", nargs="?", default=None)
    parser.add_argument("--out", default="desk_results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--all-priors", action="store_true")
    args = parser.parse_args()

    priors = [GaussianPrior(mean=1.0, std=4.0)]
    if args.all_priors:
        priors += [GammaPrior(shape=1.0, scale=1.0), LogNormalPrior(mu=0.0, sigma=1.0)]
    doc = {"priors": [prior_to_jsonable(p) for p in priors]}
    if args.dataset is not None:  # otherwise the command reads $BAYESGAME_DATA
        doc["dataset"] = args.dataset
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    return cli.main([
        "benchmark", "--config", str(config), "--out", str(out), "--scale", "desk",
        "--seed", str(args.seed), "--workers", str(args.workers),
    ])


if __name__ == "__main__":
    sys.exit(main())

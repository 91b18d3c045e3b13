#!/usr/bin/env python3
"""Generate a synthetic spambase-format CSV for smoke runs.

Features are drawn from a mixture so that the 0/1 label is linearly
predictable but noisy, which is enough to exercise the benchmark pipeline
when the real dataset is not on disk.

Usage: python scripts/make_synthetic_dataset.py out.csv [--rows N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bayesgame.experiments import SPAMBASE_COLUMNS, write_dataset_csv  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    labels = rng.integers(0, 2, size=args.rows).astype(float)
    cols = SPAMBASE_COLUMNS - 1
    direction = rng.normal(size=cols)
    direction /= np.linalg.norm(direction)
    base = rng.normal(size=(args.rows, cols))
    features = base + 1.5 * np.outer(labels - 0.5, direction)
    write_dataset_csv(features, labels, args.out)
    print(f"wrote {args.rows} rows x {SPAMBASE_COLUMNS} columns to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

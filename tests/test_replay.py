"""The replay contract: equivalent runs write the same bytes, one row per pair, two tests.

The results are numbers from seeded runs, so the same inputs give the same bits:
the wall-time column is the only non-reproducible output, a ``benchmark`` run's
``metadata.json`` config plus a ``dataset`` key replays it byte for byte, and
with ``--workers N`` the results do not depend on N.  A row names two sides that
are documented to be equivalent and what must match between them:

* a library row, two calls whose return values match by ``assert_bits``;
* a CLI row, two runs whose exit codes, stdout, stderr and output files match
  byte for byte, ``trace.csv`` without its ``wall_time_s`` column.  A side with
  a ``hashseed`` runs in a process of its own under that ``PYTHONHASHSEED``, so
  an order that follows string hashes shows.

A row may name outputs that its sides may differ in, and a check of its two
results that is not about equal outputs.
"""

import json
import re
import sys
from typing import NamedTuple

import numpy as np
import pytest

from bayesgame.cli import main
from bayesgame.experiments import (METHODS, BenchmarkConfig, Dataset, desk_config, run_benchmark,
                                   split, write_dataset_csv)
from bayesgame.game import GaussianPrior
from bayesgame.quadratic import AdamConfig, bayes_adam, bayes_fp, nash_strategy
from bayesgame.serialize import config_from_jsonable
from conftest import assert_bits, random_quadratic_game, run_process, solve_doc

GAUSSIAN = GaussianPrior(1.0, 1.0)
DATA = np.random.default_rng(0).normal(size=(450, 58))  # a synthetic dataset's rows
FEATURES, LABELS = DATA[:, :-1], (DATA[:, -1] > 0).astype(float)
SMALL = Dataset(FEATURES[:60], LABELS[:60])
FREE = random_quadratic_game(np.random.default_rng(0), 5, 3)  # unconstrained, quadratic
TINY = dict(train_n=20, test_n=20, repetitions=2, test_draws=5, ridge_alpha_grid=(0.1, 1.0),
            adam_lr_grid=(0.01,), adam_batch_grid=(8,), adam_epochs=2, adam_samples=16,
            fp_samples=8, seed=0)
NUMPY_INTS = dict(adam_batch_grid=(np.int64(8),), adam_epochs=np.int32(2),
                  adam_samples=np.int64(16), train_n=np.int64(20), seed=np.int64(0))


class Side(NamedTuple):
    """A CLI run of ``argv``, where ``{side}`` is the side's own directory, on ``doc``
    written to ``{side}/config.json``; ``{tmp}`` is the test's directory, and a callable
    ``doc`` builds the document from the first side's outputs."""

    argv: list
    doc: object
    hashseed: str = None


class Row(NamedTuple):
    name: str
    first: object  # a call, or a Side
    second: object
    check: object = None  # check(first, second) on the two sides' results
    unlike: tuple = ()  # the outputs that may differ; ``check`` checks them


def bench(methods=("ridge",), **overrides):
    return BenchmarkConfig((GAUSSIAN,), methods=methods, **TINY | overrides)


def metadata(outputs):
    return json.loads(outputs["metadata.json"])


def replayed(first, second):
    """The flag's seed is recorded as it ran, and only the config file's hash differs."""
    meta = [{k: v for k, v in metadata(o).items() if k != "config_sha256"} for o in (first, second)]
    return meta[0]["seed"] == meta[0]["config"]["seed"] == 2 and meta[0] == meta[1]


SOLVE = ["solve", "--config", "{side}/config.json", "--out", "{side}/o", "--seed", "7"]
PROBE = ["probe", "--config", "{side}/config.json", "--out", "{side}/o/diag.json", "--seed", "5"]
BENCHMARK = ["benchmark", "--config", "{side}/config.json", "--out", "{side}/o"]
BENCH = {"dataset": "{tmp}/data.csv", "priors": [{"family": "gaussian", "mean": 1.0, "std": 1.0}],
         **TINY}  # all four methods: their (prior, method) keys hash as strings
DESK = {"priors": [{"family": "gaussian", "mean": 1.0, "std": 4.0}], "methods": ["ridge"]}
ROWS = [
    Row("split", *[lambda: tuple(array for part in split(SMALL, 10, 10, seed=9)
                                 for array in (part.features, part.labels))] * 2),
    Row("bayes_fp", *[lambda: bayes_fp(FREE, np.random.default_rng(1).random((7, 5)))] * 2),
    Row("nash_strategy", *[lambda: nash_strategy(FREE, GaussianPrior(1.0, 2.0), 20)] * 2),
    Row("bayes_adam-numpy-integers", lambda: bayes_adam(FREE, GAUSSIAN, AdamConfig(
        batch_size=np.int64(3), epochs=np.int32(2), total_samples=np.uint16(8),
        seed=np.int64(4))), lambda: bayes_adam(FREE, GAUSSIAN, AdamConfig(
            batch_size=3, epochs=2, total_samples=8, seed=4))),
    Row("run_benchmark", *[lambda: run_benchmark(bench(METHODS), SMALL)] * 2),
    Row("run_benchmark-workers", lambda: run_benchmark(bench(), SMALL),
        lambda: run_benchmark(bench(), SMALL, workers=2)),
    Row("run_benchmark-numpy-integers",
        lambda: run_benchmark(bench(("bayes-adam", "ridge"), **NUMPY_INTS), SMALL),
        lambda: run_benchmark(bench(("bayes-adam", "ridge")), SMALL),
        lambda first, second: not any(r.error for r in first.rows)),
    Row("BenchmarkConfig-desk-defaults", lambda: config_from_jsonable(BenchmarkConfig, DESK, ""),
        lambda: desk_config([GaussianPrior(mean=1.0, std=4.0)], methods=("ridge",))),
    *[Row(f"{argv[0]}-process", *[Side(argv, doc, hashseed) for hashseed in "01"], check)
      for argv, doc, check in [
          (SOLVE, solve_doc(), None),
          (PROBE, solve_doc(), lambda first, second: "prg-ie step bound" in first["stderr"]),
          (BENCHMARK, BENCH, None)]],
    Row("benchmark-workers", Side(BENCHMARK, BENCH | {"methods": ["ridge"]}),
        Side([*BENCHMARK, "--workers", "2"], BENCH | {"methods": ["ridge"]})),
    Row("benchmark-metadata-replay",
        Side([*BENCHMARK, "--seed", "2"], BENCH | {"methods": ["ridge", "nash"]}),
        Side(BENCHMARK, lambda first: metadata(first)["config"] | {"dataset": "{tmp}/data.csv"}),
        replayed, ("metadata.json",)),
    Row("benchmark-sizes-default-to-desk", Side(BENCHMARK, DESK | {"dataset": "{tmp}/data.csv"}),
        Side([*BENCHMARK, "--scale", "desk"], DESK | {"dataset": "{tmp}/data.csv"}),
        lambda first, second: len(first["results.csv"].splitlines()) == 4  # 3 repetitions
        and metadata(first)["config"]["train_n"] == 200),
]
LIBRARY = [row for row in ROWS if not isinstance(row.first, Side)]
CLI = [row for row in ROWS if isinstance(row.first, Side)]


@pytest.mark.parametrize("row", LIBRARY, ids=[row.name for row in LIBRARY])
def test_library_call_replays(row):
    first, second = row.first(), row.second()
    assert_bits(second, first)
    assert row.check is None or row.check(first, second)


def run_side(side, directory, tmp_path, capsys, first=None):
    """One side's exit code, stdout, stderr and output files, ``trace.csv`` without the
    wall-time column."""
    directory.mkdir()
    doc = side.doc(first) if callable(side.doc) else side.doc
    (directory / "config.json").write_text(json.dumps(doc).replace("{tmp}", str(tmp_path)))
    argv = [arg.replace("{side}", str(directory)) for arg in side.argv]
    if side.hashseed is None:
        code, (out, err) = main(argv), capsys.readouterr()
    else:
        code, out, err = run_process([sys.executable, "-m", "bayesgame.cli", *argv],
                                     PYTHONHASHSEED=side.hashseed)
    files = {path.name: path.read_bytes() for path in (directory / "o").iterdir()}
    if "trace.csv" in files:
        files["trace.csv"] = re.sub(rb",[^,\r\n]*\r\n", b"\r\n", files["trace.csv"])
    return {"exit": code, "stdout": out, "stderr": err, **files}


@pytest.mark.parametrize("row", CLI, ids=[row.name for row in CLI])
def test_cli_run_replays(tmp_path, capsys, row):
    write_dataset_csv(FEATURES, LABELS, tmp_path / "data.csv")
    first = run_side(row.first, tmp_path / "a", tmp_path, capsys)
    second = run_side(row.second, tmp_path / "b", tmp_path, capsys, first)
    assert first["exit"] == 0
    assert ({k: v for k, v in second.items() if k not in row.unlike}
            == {k: v for k, v in first.items() if k not in row.unlike})
    assert row.check is None or row.check(first, second)

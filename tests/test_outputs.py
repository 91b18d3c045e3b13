"""``bayesgame`` against the outputs committed under ``.github/``, which a change that
moves an output updates.  Each ``*solve_profiles.json`` holds the ``w`` and ``sigma`` that
``bayesgame solve`` wrote for the game and prior of its ``config``, one solver section per
algorithm: those of the fixture game (``solve_profiles.json``, written at 3593f4a), of a
game where both players are logistic (``logistic_``, ada1290) and of a game with no ball
for either player (``unconstrained_``, 1cab935; ``prg-ie`` needs balls).
``desk_aggregate.json`` holds the desk sweep's aggregates on the synthetic data (8b0fea7)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bayesgame.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / ".github"
SOLVES = [(path.name, algo) for path in sorted(GOLDEN.glob("*solve_profiles.json"))
          for algo in json.loads(path.read_text())["solves"]]


@pytest.mark.parametrize("name, algo", SOLVES, ids=[f"{n}:{a}" for n, a in SOLVES])
def test_solve_matches_its_committed_profile(tmp_path, name, algo):
    golden = json.loads((GOLDEN / name).read_text())
    want = golden["solves"][algo]
    doc = json.loads((ROOT / golden["config"]).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc | {"algorithm": algo, "solver": want["solver"]}))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    got = json.loads((tmp_path / "out" / "profile.json").read_text())
    for key in ("w", "sigma"):
        a, b = np.ravel(got[key]), np.ravel(want[key])
        scale = float(np.abs(b).max())
        gap = float(np.abs(a - b).max()) if len(a) == len(b) else np.inf
        assert gap <= 1e-9 * scale, f"{name} {algo} {key}: off by {gap!r}, largest entry {scale!r}"


def cells(doc) -> dict:
    return {(a["method"], a["prior_family"], a["prior_params"]): a for a in doc["aggregates"]}


DESK = cells(json.loads((GOLDEN / "desk_aggregate.json").read_text()))


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The cells of the desk sweep on ``make_synthetic_dataset.py --seed 0``, all golden."""
    work = tmp_path_factory.mktemp("desk")
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_synthetic_dataset.py"),
                    str(work / "data.csv"), "--seed", "0"], check=True, capture_output=True)
    (work / "desk.json").write_text(json.dumps({"dataset": str(work / "data.csv"), "priors": [
        {"family": "gaussian", "mean": 1.0, "std": 4.0}]}))
    assert main(["benchmark", "--config", str(work / "desk.json"), "--out", str(work)]) == 0
    doc = json.loads((work / "aggregate.json").read_text())
    assert not doc["errors"], f"desk_aggregate.json: the sweep failed {doc['errors']}"
    assert cells(doc).keys() == DESK.keys(), f"desk_aggregate.json: cells {sorted(cells(doc))}"
    return cells(doc)


@pytest.mark.parametrize("cell", DESK, ids="/".join)
def test_desk_cell_matches_its_committed_aggregate(desk, cell):
    want, got = DESK[cell], desk[cell]
    for key, value in (("config", want["config"]), ("failures", 0)):
        assert got[key] == value, f"desk_aggregate.json {cell} {key}: {got[key]!r}"
    gap = abs(got["mean_rmse"] - want["mean_rmse"])
    assert gap <= 1e-9 * abs(want["mean_rmse"]), f"desk_aggregate.json {cell} mean_rmse: {gap!r}"

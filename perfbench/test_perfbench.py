"""Smoke tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench``.  Each test
runs ``perfbench/run.py --smoke``, whose budgets are tiny, and checks the
result against BENCHMARK.json.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SPAN_KEYS = {"id", "name", "start", "end", "parent", "workload", "repeat"}


def run_smoke(workload, trace, tmp_path, cwd=ROOT):
    spans = tmp_path / "spans.json"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), "--smoke", "--spans", str(spans)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done, spans


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    done, spans = run_smoke(workload, 0, tmp_path)
    result = last_json(done)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    failed_lines = [line for line in done.stdout.splitlines() if line.startswith("failed ")]
    assert result["failed"] == len(failed_lines)
    assert not spans.exists()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_writes_spans(workload, tmp_path):
    done, spans = run_smoke(workload, 1, tmp_path)
    result = last_json(done)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected

    records = json.loads(spans.read_text())["spans"]
    assert records
    by_id = {span["id"]: span for span in records}
    for span in records:
        assert set(span) == SPAN_KEYS
        assert span["workload"] == workload
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["repeat"] == span["repeat"]
    assert {"setup", 0} <= {span["repeat"] for span in records}


def test_operation_counts_do_not_depend_on_the_repeats(tmp_path):
    """attempted and failed count operations, not calls, so a longer run that
    makes more repeats reports the same counts; desk_vi's oracle attempt fails."""
    counts = []
    for seconds in ("0", "4"):
        cmd = [sys.executable, "perfbench/run.py", "--workload", "desk_vi", "--seed", "5",
               "--seconds", seconds, "--trace", "0", "--smoke"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        result = last_json(done)
        repeats = next(line for line in done.stdout.splitlines() if line.startswith("repeats "))
        counts.append((result["attempted"], result["failed"], len(repeats.split()) - 3))
    (attempted, failed, few), (attempted_long, failed_long, many) = counts
    assert many > few
    # the probe, the smoke budget's one pg_rbc chain, prg_ie and the oracle attempt
    assert (attempted_long, failed_long) == (attempted, failed) == (4, 1)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = run_smoke("fixture", 0, tmp_path, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_sweep_cells_reproduce_run_benchmark(tmp_path, monkeypatch):
    """desk_sweep runs the sweep cell by cell; its RMSEs must be run_benchmark's."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads
    from bayesgame import experiments

    sweep = workloads.DeskSweep(5, tmp_path, smoke=True)
    # two repetitions and a two-value grid, so that the configuration choice matters
    sweep.config = dataclasses.replace(sweep.config, repetitions=2, ridge_alpha_grid=(0.01, 100.0))
    ops = workloads.Ops()
    qualities = [sweep.check(ops, sweep.repeat(ops, group)) for group in range(sweep.groups)]
    assert ops.correct and not ops.failures

    expected = experiments.run_benchmark(sweep.config, sweep.data, workers=1).aggregates
    for method in sweep.config.methods:
        got = [q[f"rmse.{method}"] for q in qualities]
        want = [a["mean_rmse"] for a in expected if a["method"] == method]
        np.testing.assert_allclose(got, want, rtol=1e-12)

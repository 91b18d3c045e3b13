"""What the benchmark reads of the package, and the script that compares two trees.

No test runs a benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(path, name, patch):
    """Execute ``path`` as module ``name``, registered until ``patch`` is undone."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_rebinds_exists(monkeypatch):
    # perfbench's traced run looks up each target with getattr, so a deleted name
    # passes Tier-1 and the untraced benchmark but breaks `python -m pytest perfbench`
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    load(ROOT / "perfbench" / "tracing.py", "tracing", monkeypatch)
    workloads = load(ROOT / "perfbench" / "workloads.py", "workloads", monkeypatch)
    missing = [f"{t.module.__name__}.{t.attr}" for t in workloads.trace_targets()
               if not hasattr(t.module, t.attr)]
    assert missing == [], (f"perfbench's traced run rebinds {missing}: keep them until it "
                           "times kernels directly (ROADMAP items 8 and 10)")


def test_bench_summary_of_two_recorded_runs(monkeypatch):
    bench = load(ROOT / "scripts" / "bench.py", "bench", monkeypatch)
    parent, change = (bench.parse_run((ROOT / "tests" / "data" / f"perfbench_fixture_{side}.txt")
                                      .read_text()) for side in ("parent", "change"))
    assert parent["env"]["nproc"] >= 1 and {"python", "numpy", "blas"} <= set(parent["env"])
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [parent, parent], "change": [change, change]}
    entry = bench.summarize(runs, [parent, change], end_to_end)
    assert entry["parent"] == entry["change"] == {"attempted": [6, 6], "failed": [0, 0]}
    assert entry["correct"] is True
    assert set(entry["metrics"]) == {"setup_s", "solve_s", "peak_rss_mb"}
    # a placebo pair twice apart: a spread wider than every bound leaves a metric
    # unresolved, unless every run of the change reads better
    doubled = {**parent, "metrics": {k: 2.0 * v for k, v in parent["metrics"].items()}}
    wide = bench.summarize(runs, [parent, doubled], end_to_end)["metrics"]
    for metric in end_to_end:
        m, name = entry["metrics"][metric["name"]], metric["name"]
        ratio = change["metrics"][name] / parent["metrics"][name]
        assert m["ratio"] == pytest.approx(ratio, rel=1e-15)
        assert m["placebo_spread"] == pytest.approx(abs(ratio - 1.0), rel=1e-12)
        assert m["parent_quartile_spread"] == 0.0 and m["bound"] == metric["bound"]
        assert m["verdict"] == ("within" if ratio <= 1 + m["bound"] else "out")
        assert m["parent"] == {"median": parent["metrics"][name], "q1": parent["metrics"][name],
                               "q3": parent["metrics"][name], "runs": [parent["metrics"][name]] * 2}
        assert m["change_better_pairs"] == 2 * (ratio < 1.0)
        assert wide[name]["placebo_spread"] == 1.0
        assert wide[name]["verdict"] == ("within" if ratio < 1.0 else "unresolved")
    assert {m["verdict"] for m in wide.values()} == {"within", "unresolved"}


def test_a_stopped_run_leaves_a_partial_file(tmp_path, monkeypatch):
    bench = load(ROOT / "scripts" / "bench.py", "bench", monkeypatch)
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "--no-gpg-sign", "-m", "t"], check=True)
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    run = bench.parse_run((ROOT / "tests" / "data" / "perfbench_fixture_parent.txt").read_text())
    monkeypatch.setattr(bench, "ROOT", tmp_path)  # the one file of both trees is BENCHMARK.json
    # the smoke pair runs on seed 1; the placebo pair, on seed 11, raises
    monkeypatch.setattr(bench, "perfbench", lambda tree, workload, seed, *_: {1: run}[seed])
    with pytest.raises(KeyError, match="11"):
        bench.main(["--pr", "7", "--parent", "HEAD", "--smoke", "--suite"])
    partial = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert partial["partial"] == {"pairs_done": 1, "missing": ["placebo", "suite"]}
    assert set(partial["workloads"]) == {"fixture", "desk_vi", "desk_sweep"}
    for metric in partial["workloads"]["fixture"]["metrics"].values():
        assert metric["placebo_spread"] is None and metric["verdict"] == "within"

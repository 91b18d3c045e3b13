#!/usr/bin/env python3
"""Run perfbench on a parent revision and on the working tree; write BENCH_<pr>.json.

Usage (from the root of a checkout):

    python3 scripts/bench.py --pr N --parent REV [--suite] [--smoke]

The parent tree is ``git archive REV``; the change tree is a copy of the files
git tracks or does not ignore in the working tree.  Neither holds a bytecode
cache, and every run sets ``PYTHONDONTWRITEBYTECODE=1``, so that set-up times
compare like with like.  Each workload of BENCHMARK.json runs 10 times on
each tree (``perfbench/run.py --trace 0``, seeds 1 to 10, BENCHMARK.json's
``run_seconds``), the side that runs first alternating from pair to pair; one
more pair runs the parent against itself on seed 11, as a placebo.  The file is
written after every pair, so a run that is stopped leaves one: until the placebo
pair and ``--suite`` have run, it holds a ``partial`` entry with the pairs done
and the parts still missing, and its placebo spreads are null.  The
protocol is fixed, so the files of any two changes compare.  For each workload
and end-to-end metric the file holds each side's runs, median and quartiles,
the change's median over the parent's, the BENCHMARK.json bound, the placebo's
spread, a verdict and the operations attempted and failed.  The verdict is
``within`` or ``out`` of the bound, or ``unresolved`` where the placebo's
spread or the parent's quartile distance, over its median, is wider than the
bound, unless every run of the change reads better than every run of the
parent.  ``--suite`` also times the Tier-1 suite and acceptance criterion 3
(gate: 120 s) on each tree.  ``--smoke`` runs one pair for 0.5 s on
perfbench's tiny budgets, to check the script itself.  The comparison with the
newest earlier BENCH_*.json is printed at the end.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_pg_rbc_rate"
CRITERION_3_GATE_S = 120.0
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
SEEDS = range(1, 11)  # one pair of runs per seed
PLACEBO_SEED = 11


def parse_run(stdout: str) -> dict:
    """perfbench's environment line and its last line, the result object."""
    env = next(json.loads(line[4:]) for line in stdout.splitlines() if line.startswith("env "))
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"env": env, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (
        values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, placebo, end_to_end: list) -> dict:
    """One workload's entry from its parsed runs (``runs["parent"]`` and
    ``runs["change"]``, in pair order) and its two placebo runs of the parent, or
    None before they ran: the placebo spread is then None and no verdict weighs it."""
    entry = {side: {key: [r[key] for r in runs[side]] for key in ("attempted", "failed")}
             for side in ("parent", "change")}
    entry["correct"] = all(r["correct"] for side in runs.values() for r in side)
    entry["metrics"] = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent, change = ([r["metrics"][name] for r in runs[side]] for side in ("parent", "change"))
        ratio = statistics.median(change) / statistics.median(parent)
        placebo_spread = None if placebo is None else abs(
            placebo[1]["metrics"][name] / placebo[0]["metrics"][name] - 1.0)
        parent_q = quartiles(parent)
        spread = (parent_q["q3"] - parent_q["q1"]) / parent_q["median"]
        if all(sign * (c - p) < 0 for c in change for p in parent):
            verdict = "within"  # every run of the change reads better
        elif max(placebo_spread or 0.0, spread) > metric["bound"]:
            verdict = "unresolved"
        else:
            verdict = "within" if sign * (ratio - 1.0) <= metric["bound"] else "out"
        entry["metrics"][name] = {
            "unit": metric["unit"], "bound": metric["bound"],
            "parent": parent_q, "change": quartiles(change), "ratio": ratio,
            "verdict": verdict,
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "placebo_spread": placebo_spread, "parent_quartile_spread": spread,
        }
    return entry


def parent_tree(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def change_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is not
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def perfbench(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + ["--smoke"] * smoke
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=ENV)
    if done.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return parse_run(done.stdout)


def suite(tree: Path) -> dict:
    """Tier-1's wall time and summary line, and criterion 3's time against its gate."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--durations=0"], cwd=tree,
                          capture_output=True, text=True, env={**ENV, "PYTHONPATH": "src"})
    wall = time.perf_counter() - start
    found = re.search(rf"([\d.]+)s call\s+{re.escape(CRITERION_3)}", done.stdout)
    criterion_3 = float(found.group(1)) if found else None
    return {"tier1_s": wall, "tier1_summary": done.stdout.strip().splitlines()[-1],
            "criterion_3_s": criterion_3, "criterion_3_gate_s": CRITERION_3_GATE_S,
            "criterion_3_within_gate": criterion_3 is not None
            and criterion_3 < CRITERION_3_GATE_S}


def newest_before(pr: int):
    found = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m.group(1)) < pr]
    return max(found)[1] if found else None


def print_comparison(bench: dict, previous) -> None:
    old = json.loads(previous.read_text())["workloads"] if previous else {}
    print(f"{'workload':<11}{'metric':<13}{'parent':>10}{'change':>10}{'ratio':>8}{'bound':>7}"
          f"{'placebo':>9}  {'verdict':<10}" + (f"  {previous.name} change" if previous
                                                  else ""))
    for workload, entry in bench["workloads"].items():
        for name, m in entry["metrics"].items():
            before = old.get(workload, {}).get("metrics", {}).get(name)
            against = f"  {before['change']['median']:.4g}" if before else ""
            print(f"{workload:<11}{name:<13}{m['parent']['median']:>10.4g}"
                  f"{m['change']['median']:>10.4g}{m['ratio']:>8.3f}{m['bound']:>7.2f}"
                  f"{m['placebo_spread']:>9.3f}  {m['verdict']:<10}{against}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--suite", action="store_true", help="also time Tier-1 and criterion 3")
    parser.add_argument("--smoke", action="store_true", help="one pair on perfbench's tiny budgets")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds, seconds = (SEEDS[:1], 0.5) if args.smoke else (SEEDS, spec["run_seconds"])
    parent_rev, head = (subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                                       text=True, check=True).stdout.strip()
                        for rev in (args.parent, "HEAD"))
    out = ROOT / f"BENCH_{args.pr}.json"
    bench = {"pr": args.pr, "parent": parent_rev, "change": f"the working tree on {head}",
             "protocol": {"pairs": len(seeds), "seconds": seconds, "smoke": args.smoke,
                          "seeds": list(seeds), "placebo_seed": PLACEBO_SEED, "trace": 0,
                          "first_side": "parent on even pairs (from 0), change on odd",
                          "bytecode": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ in either tree"}}
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    placebo = {}

    def write(missing: list) -> None:
        """The file from the runs so far; while parts are ``missing`` it says so."""
        env = runs[workloads[0]]["parent"][0]["env"]
        bench["environment"] = {key: env[key] for key in ("nproc", "cpus_usable", "python",
                                                          "numpy", "blas")}
        bench["workloads"] = {w: summarize(runs[w], placebo.get(w), spec["end_to_end"])
                              for w in workloads}
        done = len(runs[workloads[0]]["change"])
        partial = {"partial": {"pairs_done": done, "missing": missing}} if missing else {}
        out.write_text(json.dumps(bench | partial, indent=1) + "\n")

    suite_part = ["suite"] if args.suite else []
    with tempfile.TemporaryDirectory(prefix="bench-") as work:
        trees = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        parent_tree(parent_rev, trees["parent"])
        change_tree(trees["change"])
        if any(path for tree in trees.values() for path in tree.rglob("__pycache__")):
            raise SystemExit("bench: a tree holds a bytecode cache")
        for i, seed in enumerate(seeds):
            for workload in workloads:
                for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                    runs[workload][side].append(
                        perfbench(trees[side], workload, seed, seconds, args.smoke))
                    print(f"pair {i + 1}/{len(seeds)} {workload} {side}: "
                          f"{runs[workload][side][-1]['metrics']}", flush=True)
            pairs_left = [f"pairs {i + 2}-{len(seeds)}"] if i + 1 < len(seeds) else []
            write(pairs_left + ["placebo"] + suite_part)
        placebo.update({w: [perfbench(trees["parent"], w, PLACEBO_SEED, seconds, args.smoke)
                            for _ in range(2)] for w in workloads})
        write(suite_part)
        if args.suite:
            bench["suite"] = {side: suite(tree) for side, tree in trees.items()}
            write([])
    print(f"wrote {out.name}")
    print_comparison(bench, newest_before(args.pr))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the bayesgame package: one workload per call, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {fixture,desk_vi,desk_sweep} \\
        --seed N --seconds S --trace {0,1} [--smoke] [--spans PATH]

The run builds every input from ``--seed``, repeats the workload's timed
phase until ``--seconds`` have passed and checks every repeat's outputs.
Human-readable lines (environment, every metric by name and unit, failed
operations) come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run, whose spans are written to ``--spans`` when the run ends.
``--smoke`` shrinks every budget so that the benchmark's own tests run in
seconds.  Timings are wall-clock only; see README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS pools must be pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5  # set-ups per run, this process's own included; setup_s is their median

END_TO_END = ("setup_s", "solve_s", "peak_rss_mb")

# per-layer metric -> (unit, how it is computed from the traced totals):
#   ("calls"|"total"|"self", label): per round of the workload's groups
#       (Pass.per_round over the traced repeats), plus what set-up and the
#       after-phase contributed once;
#   ("us_per_call", label): over every traced call;
#   ("us_per_iter", label): time net of trace points and the hidden probe,
#       per solver iteration;  ("ok", label): share of calls that returned.
PER_LAYER = {
    "game.project.calls": ("count", ("calls", "game.project")),
    "game.project.us": ("us", ("us_per_call", "game.project")),
    "game.grad_learner_w.us": ("us", ("us_per_call", "game.grad_learner_w")),
    "game.grad_adversary_X.us": ("us", ("us_per_call", "game.grad_adversary_X")),
    "game.discretize_prior.s": ("s", ("total", "game.discretize_prior")),
    "solvers.stacked_map.us": ("us", ("us_per_call", "solvers.stacked_map")),
    "solvers.equilibrium_residual.us": ("us", ("us_per_call", "solvers.equilibrium_residual")),
    "solvers.trace_points": ("count", ("calls", "solvers.equilibrium_residual")),
    "solvers.assumption_probe.calls": ("count", ("calls", "solvers.assumption_probe")),
    "solvers.assumption_probe.s": ("s", ("total", "solvers.assumption_probe")),
    "solvers.extragradient_reference.s": ("s", ("total", "solvers.extragradient_reference")),
    "solvers.extragradient_reference.ok": ("ratio", ("ok", "solvers.extragradient_reference")),
    "solvers.pg_rbc.self_us_per_iter": ("us", ("us_per_iter", "solvers.pg_rbc")),
    "solvers.prg_ie.self_us_per_iter": ("us", ("us_per_iter", "solvers.prg_ie")),
    "quadratic.bayes_adam.self_s": ("s", ("self", "quadratic.bayes_adam")),
    "quadratic.stochastic_gradient.calls": ("count", ("calls", "quadratic.stochastic_gradient")),
    "quadratic.stochastic_gradient.us": ("us", ("us_per_call", "quadratic.stochastic_gradient")),
    "quadratic.stochastic_objective.calls": ("count", ("calls", "quadratic.stochastic_objective")),
    "quadratic.stochastic_objective.s": ("s", ("total", "quadratic.stochastic_objective")),
    "baselines.bayes_fp.s": ("s", ("total", "baselines.bayes_fp")),
    "baselines.nash_strategy.s": ("s", ("total", "baselines.nash_strategy")),
    "baselines.ridge_fit.s": ("s", ("total", "baselines.ridge_fit")),
    "experiments.load_spambase.s": ("s", ("total", "experiments.load_spambase")),
    "experiments.evaluate.calls": ("count", ("calls", "experiments.evaluate")),
    "experiments.evaluate.s": ("s", ("total", "experiments.evaluate")),
    "cli.main.s": ("s", ("total", "cli.main")),
    "serialize.game_from_jsonable.s": ("s", ("total", "serialize.game_from_jsonable")),
    "serialize.profile_to_jsonable.s": ("s", ("total", "serialize.profile_to_jsonable")),
}
# trace points and the probe a solver call runs are not part of its iterations
NOT_ITERATION = ("solvers.equilibrium_residual", "solvers.epsilon_distance",
                 "solvers.assumption_probe")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fixture", "desk_vi", "desk_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the tests")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path; fail unless bayesgame comes from it."""
    if not (SRC / "bayesgame" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bayesgame package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bayesgame

    if not Path(bayesgame.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: bayesgame imported from {bayesgame.__file__}, not {SRC}")


class Repeat(NamedTuple):
    group: int  # which of the workload's groups of work the repeat ran
    wall: float  # seconds of the timed phase
    quality: dict  # what the workload's check kept of the outputs


class Pass(NamedTuple):
    """The repeats of one measuring pass and the calibration samples taken between them."""

    repeats: list
    calibration: list
    kernel: tuple  # the calibration kernel's parts

    def per_round(self, values) -> float:
        """Sum over the workload's groups of the median of ``values`` (one per
        repeat) in each group: the value for one round of every group."""
        groups = {}
        for r, value in zip(self.repeats, values):
            groups.setdefault(r.group, []).append(value)
        return sum(statistics.median(v) for v in groups.values())

    @property
    def wall_s(self) -> float:
        return self.per_round(r.wall for r in self.repeats)

    @property
    def solve_s(self) -> float:
        return reference_seconds(self.wall_s, statistics.median(self.calibration), self.kernel)


# Calibration: a shared host switches between a fast and a slow state every
# second or so, and at times stays slow for minutes.  The slow state costs
# interpreter steps about 1.4x and numpy calls on tiny arrays about 1.7x, but
# passes over large arrays only about 1.1x, so the same fixture repeat took
# 0.95 s in one run and 1.39 s in another; no statistic inside one run
# removes that.  A fixed kernel that does not touch bayesgame, timed between
# the repeats of a pass, samples the host's state, and the reported times
# divide it out.  Each workload names the kernel parts that mirror its own
# costs, so that the kernel slows down about as much as the workload does.
_CAL_TINY = np.linspace(0.1, 1.0, 8)
_CAL_DESK = np.linspace(0.1, 1.0, 16 * 200 * 57).reshape(16, 200, 57)


def _interpreter_steps() -> None:
    total = 0
    for i in range(170_000):
        total += i * i


def _tiny_array_calls() -> None:
    x = _CAL_TINY
    for _ in range(6_000):
        x = np.sqrt(x * 1.0001 + 0.5)


def _desk_array_passes() -> None:
    y = _CAL_DESK
    for _ in range(20):
        y = np.sqrt(y * 0.999 + 0.25)


KERNEL_PARTS = {
    "interpreter": _interpreter_steps,
    "tiny_arrays": _tiny_array_calls,
    "desk_arrays": _desk_array_passes,
}
SETUP_KERNEL = ("interpreter", "tiny_arrays", "desk_arrays")
PART_REF_S = 0.035 / 3  # time of one part on the reference host (2.1 GHz Xeon)
# Each calibration point lasts this share of the repeat before it, so the
# points between long repeats average over several of the host's changes.
CALIBRATION_SHARE = 0.15


def calibrate(kernel: tuple, runs: int = 3) -> list[float]:
    """Wall times of ``runs`` runs of the kernel made of the parts ``kernel`` names."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        for part in kernel:
            KERNEL_PARTS[part]()
        times.append(time.perf_counter() - start)
    return times


def reference_seconds(wall: float, calibration: float, kernel: tuple) -> float:
    """Wall seconds scaled to the reference host: what the interval would have
    taken where each kernel part takes PART_REF_S."""
    return wall * PART_REF_S * len(kernel) / calibration


def measure(workload, ops, seconds, tracer=None) -> Pass:
    """Repeat the timed phase until ``seconds`` have passed, and at least
    until each of the workload's groups has run once; the groups take turns.

    Checks and calibration run untimed and, in a traced pass, with the
    original bindings restored.
    """
    repeats = []
    kernel = workload.calibration_kernel
    calibration = calibrate(kernel)
    deadline = time.perf_counter() + seconds
    while len(repeats) < workload.groups or time.perf_counter() < deadline:
        group = len(repeats) % workload.groups
        with tracer.recording(len(repeats)) if tracer else nullcontext():
            start = time.perf_counter()
            outputs = workload.repeat(ops, group)
            wall = time.perf_counter() - start
        runs = round(CALIBRATION_SHARE * wall / (PART_REF_S * len(kernel)))
        calibration += calibrate(kernel, min(max(runs, 3), 60))
        # only the checked summary is kept, so memory does not grow with repeats
        repeats.append(Repeat(group, wall, workload.check(ops, outputs)))
        del outputs
    return Pass(repeats, calibration, kernel)


def setup_sample(args) -> float:
    """Set-up time of a fresh process (imports plus input building), in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return reference_seconds(sample["setup_wall_s"], sample["calibration_s"], SETUP_KERNEL)


def layer_metrics(tracer, traced: Pass, untraced: Pass) -> dict:
    repeats = range(len(traced.repeats))
    once = ("setup", "after")

    def get(phase, label):
        return tracer.totals.get(phase, {}).get(label) or tracing.Totals()

    def per_round(label, field):
        median = traced.per_round(getattr(get(p, label), field) for p in repeats)
        return median + sum(getattr(get(p, label), field) for p in once)

    def overall(label):
        total = tracing.Totals()
        for phase in tracer.totals:
            total.add(get(phase, label))
        return total

    metrics = {}
    for name, (unit, (kind, label)) in PER_LAYER.items():
        if kind == "calls":
            value = per_round(label, "calls")
        elif kind == "total":
            value = per_round(label, "total_s")
        elif kind == "self":
            value = per_round(label, "self_s")
        elif kind == "us_per_call":
            t = overall(label)
            value = 1e6 * t.total_s / t.calls if t.calls else 0.0
        elif kind == "us_per_iter":
            t = overall(label)
            net = t.total_s - sum(t.child_s[c] for c in NOT_ITERATION)
            value = 1e6 * net / t.units if t.units else 0.0
        else:  # "ok"
            t = overall(label)
            value = (t.calls - t.errors) / t.calls if t.calls else 0.0
        metrics[name] = (value, unit)
    cells = traced.per_round(r.quality.get("cells_failed", 0) for r in traced.repeats)
    metrics["experiments.cells_failed"] = (cells, "count")
    metrics["trace.overhead_s"] = (traced.solve_s - untraced.solve_s, "s")
    return metrics


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run(args, workdir: Path) -> int:
    import workloads  # imports bayesgame, so only after import_package()

    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(args.workload, workloads.trace_targets()) if args.trace else None
    with tracer.recording("setup") if tracer else nullcontext():
        workload = cls(args.seed, workdir, args.smoke)
    own_setup = time.perf_counter() - _START
    own_calibration = statistics.median(calibrate(SETUP_KERNEL))
    if args.setup_only:
        print(json.dumps({"setup_wall_s": own_setup, "calibration_s": own_calibration}))
        return 0

    ops = workloads.Ops()
    if tracer:
        untraced = measure(workload, ops, args.seconds / 2)
        traced = measure(workload, ops, args.seconds / 2, tracer)
    else:
        untraced = measure(workload, ops, args.seconds)
    with tracer.recording("after") if tracer else nullcontext():
        workload.after(ops)

    report = {
        "solve_s": (untraced.solve_s, "s"),
        "solve_wall_s": (untraced.wall_s, "s"),
        "host.calibration_s": (statistics.median(untraced.calibration), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer:
        metrics = layer_metrics(tracer, traced, untraced)
        spans = args.spans or WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
    else:
        samples = [reference_seconds(own_setup, own_calibration, SETUP_KERNEL)]
        samples += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        print("setup_samples " + " ".join(f"{v:.4f}" for v in samples))
        report["setup_s"] = (statistics.median(samples), "s")
        report["setup_wall_s"] = (own_setup, "s")
        metrics = {name: report[name] for name in END_TO_END}
    report.update(workload.summary(untraced))

    print("env " + json.dumps(environment(args)))
    passes = {"untraced": untraced, "traced": traced} if tracer else {"untraced": untraced}
    for name, measured in passes.items():
        print(f"repeats {args.workload} {name}: "
              + " ".join(f"{r.group}:{r.wall:.4f}" for r in measured.repeats))
    for name, (value, unit) in {**report, **metrics}.items():
        print(f"metric {args.workload} {name} = {value!r} {unit}")
    for entry in ops.failures:
        print(f"failed {args.workload} {entry['name']} ({entry['failed_calls']} of "
              f"{entry['calls']} calls): {entry['error']}")
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

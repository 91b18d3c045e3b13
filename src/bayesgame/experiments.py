"""Benchmark protocol: data loading, splits, adversarial evaluation, sweeps.

The harness trains each requested strategy on a train split, then measures
RMSE on test points that the data generator has transformed using its
closed-form response under weights drawn from the prior.  Hyperparameter
grids are scored by mean RMSE across repetitions and the winning
configuration's rows are reported.  Everything derives from a single seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np

from .game import (FieldError, GameSpec, Prior, _check_count, _check_finite, _check_matrix,
                   _check_real, _check_shape, _check_weight_rows, _prior_family, sample_prior)
from .quadratic import AdamConfig, _perturbed_predictions, bayes_adam, bayes_fp, nash_strategy

SPAMBASE_COLUMNS = 58  # 57 features plus the trailing 0/1 label
METHODS = ("bayes-adam", "bayes-fp", "nash", "ridge")


@dataclass
class Dataset:
    """Feature table with 0/1 labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = _check_matrix(self.features, "features")
        self.labels = _check_shape(self.labels, self.features.shape[:1], "labels")
        if not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise FieldError("labels", "must be 0 or 1")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices])


def load_spambase(path) -> Dataset:
    """Parse a spambase-format CSV: 58 numeric columns, no header.

    Features are standardized per column using full-dataset statistics.
    Malformed lines raise with their line number.  numpy's C reader parses the
    file; what it rejects, or a table that fails a check, is parsed again line
    by line, which names the bad line or reads what only ``float`` reads (``1_0``).
    """
    with open(path) as fh, warnings.catch_warnings():  # given a path, loadtxt also fetches URLs
        warnings.simplefilter("ignore", UserWarning)  # "no data": the line parser says so
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
    if (table is None or table.shape[1] != SPAMBASE_COLUMNS or not np.isfinite(table).all()
            or not np.isin(table[:, -1], (0.0, 1.0)).all()):
        table = _parse_lines(path)
    features = table[:, :-1]
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds == 0, 1.0, stds)  # constant columns pass through
    return Dataset((features - means) / stds, table[:, -1].copy())  # a view keeps the table


def _parse_lines(path) -> np.ndarray:
    """The (rows, 58) table, line by line: the first malformed line raises with its number."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != SPAMBASE_COLUMNS:
                raise ValueError(
                    f"{path}:{lineno}: expected {SPAMBASE_COLUMNS} comma-separated "
                    f"values, found {len(parts)}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            if values[-1] not in (0.0, 1.0):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    return np.asarray(rows, dtype=float)


def write_dataset_csv(features: np.ndarray, labels: np.ndarray, path) -> None:
    """Write a spambase-format CSV that reads back as written; floats use repr.

    Rows are formatted one at a time, so a table's floats never exist as
    Python objects all at once.
    """
    data = Dataset(features, labels)
    if data.features.shape[1] != SPAMBASE_COLUMNS - 1:
        raise FieldError("features", f"must have {SPAMBASE_COLUMNS - 1} columns, "
                                     f"got {data.features.shape[1]}")
    with open(path, "w") as fh:
        for row, label in zip(data.features, data.labels):
            fh.write(",".join(map(repr, row.tolist())))
            fh.write(f",{int(label)}\n")


def split(data: Dataset, train_n: int, test_n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint uniform train/test subsets, deterministic given the seed."""
    _check_count(train_n, "train_n")
    _check_count(test_n, "test_n")
    _check_count(seed, "seed", 0)
    if train_n + test_n > len(data):
        raise ValueError(
            f"train_n + test_n = {train_n + test_n} exceeds dataset size {len(data)}"
        )
    perm = np.random.default_rng(seed).permutation(len(data))
    return data.take(perm[:train_n]), data.take(perm[train_n : train_n + test_n])


def rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    targets = np.asarray(targets, dtype=float)
    predictions = _check_shape(predictions, targets.shape, "predictions")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


@dataclass(frozen=True)
class ZRule:
    """How the generator's target predictions derive from the labels."""

    kind: Literal["flip", "zero"] = "flip"  # "flip": z = 1 - y; "zero": z = 0

    def __post_init__(self):
        if self.kind not in ("flip", "zero"):
            raise FieldError("kind", f"must be flip or zero, got {self.kind!r}")

    def resolve(self, labels: np.ndarray) -> np.ndarray:
        return 1.0 - labels if self.kind == "flip" else np.zeros_like(labels)


def evaluate(
    w: np.ndarray,
    test: Dataset,
    z_rule: ZRule,
    draws: np.ndarray,
    adversary_w: np.ndarray | None = None,
) -> float:
    """Mean RMSE over weight draws after the generator transforms the test set.

    ``draws`` holds one draw of the generator's weights per row, shape
    (draws, len(test)), such as ``sample_prior(prior, len(test), test_draws, seed)``.
    The transformation anticipates ``adversary_w`` (defaults to the evaluated
    model itself); predictions always use ``w``.
    """
    w = _check_shape(w, test.features.shape[1:], "w")
    w_adv = w if adversary_w is None else _check_shape(adversary_w, w.shape, "adversary_w")
    draws = np.asarray(draws, dtype=float)
    _check_weight_rows(draws, len(test), "draws")
    z = z_rule.resolve(test.labels)
    preds = _perturbed_predictions(w, test.features, z, draws, w_adv)
    per_draw = np.sqrt(np.mean((preds - test.labels[None, :]) ** 2, axis=1))
    return float(per_draw.mean())


# --------------------------------------------------------------------------
# Benchmark sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark sweep: the priors, the split sizes and repetitions, the methods
    and their hyperparameter grids; the JSON document of ``bayesgame benchmark``.

    ``prior_grid`` is read and written under the key ``priors``.  The sizes default
    to the desk preset (200/200 splits, 3 repetitions, 100 test draws); the CLI's
    ``--scale paper`` replaces them with 500/500/10/500.
    """

    prior_grid: tuple[Prior, ...] = field(metadata={"json": "priors"})
    train_n: int = 200  # the sizes default to the desk preset
    test_n: int = 200
    repetitions: int = 3
    test_draws: int = 100
    methods: tuple[str, ...] = METHODS
    c_l_value: float = 0.1
    z_rule: ZRule = field(default_factory=ZRule)
    seed: int = 0
    reg_l: float = 1.0
    adam_lr_grid: tuple[float, ...] = (0.001, 0.01, 0.1)
    adam_batch_grid: tuple[int, ...] = (32, 64, 128)
    ridge_alpha_grid: tuple[float, ...] = (0.01, 0.1, 1.0)
    adam_epochs: int = 20
    adam_samples: int = 1000
    fp_samples: int = 1000
    fp_iterations: int = 20
    nash_iterations: int = 20
    two_equilibria: bool = False

    def __post_init__(self):
        # an empty list would leave the sweep, a method or a grid without rows
        for name in ("prior_grid", "methods", "adam_lr_grid", "adam_batch_grid",
                     "ridge_alpha_grid"):
            if not getattr(self, name):
                raise FieldError("priors" if name == "prior_grid" else name, "must not be empty")
        _check_count(self.seed, "seed", 0)
        if not isinstance(self.two_equilibria, bool):  # a truthy "no" would turn it on
            raise FieldError("two_equilibria", f"must be a bool, got {self.two_equilibria!r}")
        for name in ("train_n", "test_n", "repetitions", "test_draws", "adam_epochs",
                     "adam_samples", "fp_samples", "fp_iterations", "nash_iterations"):
            _check_count(getattr(self, name), name)
        for name in ("c_l_value", "reg_l"):
            _check_real(getattr(self, name), name, "nonnegative")
        for name in ("adam_lr_grid", "ridge_alpha_grid"):
            for i, value in enumerate(getattr(self, name)):
                _check_real(value, f"{name}[{i}]", "positive")
        for i, batch in enumerate(self.adam_batch_grid):
            _check_count(batch, f"adam_batch_grid[{i}]")
        # _method_grid labels each value so; one label would merge two values' seeds and rows
        for key, fmt in (("adam_lr_grid", "g"), ("adam_batch_grid", ""), ("ridge_alpha_grid", "g")):
            labels = [format(value, fmt) for value in getattr(self, key)]
            if len(set(labels)) < len(labels):
                raise FieldError(key, f"must not hold values that print alike: {', '.join(labels)}")
        for i, method in enumerate(self.methods):
            if method not in METHODS:
                raise FieldError(f"methods[{i}]", f"must be one of {', '.join(METHODS)}, "
                                                  f"got {method!r}")
            if method in self.methods[:i]:  # its rows would be written twice
                raise FieldError(f"methods[{i}]", f"must not repeat {method!r}")


@dataclass
class ResultRow:
    method: str
    prior_family: str
    prior_params: str
    repetition: int
    rmse: float
    config_label: str = ""
    error: str = ""


@dataclass
class BenchmarkResult:
    rows: list
    aggregates: list  # dicts: method, prior_family, prior_params, mean/std rmse, chosen config

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "prior_family", "prior_params", "repetition", "rmse"])
            for row in self.rows:
                value = "" if math.isnan(row.rmse) else repr(row.rmse)
                writer.writerow(
                    [row.method, row.prior_family, row.prior_params, row.repetition, value]
                )

    def to_json(self) -> dict:
        return {
            "aggregates": self.aggregates,
            "errors": [
                {
                    "method": r.method,
                    "prior_params": r.prior_params,
                    "repetition": r.repetition,
                    "error": r.error,
                }
                for r in self.rows
                if r.error
            ],
        }


def prior_label(prior: Prior) -> tuple[str, str]:
    """The prior's family name and its fields as printed in result rows, K=atoms if finite."""
    family = _prior_family(prior)
    if family == "finite":
        return family, f"K={prior.num_atoms}"
    return family, ",".join(f"{f.name}={getattr(prior, f.name):g}" for f in fields(prior))


def derive_seed(base: int, *tags) -> int:
    """Stable sub-seed from the base seed and a tag tuple (sha256 of the repr).

    A numpy integer base derives what the same Python int does: its repr differs.
    """
    digest = hashlib.sha256(repr((int(base),) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def _train_spec(train: Dataset, config: BenchmarkConfig) -> GameSpec:
    n = len(train)
    return GameSpec(
        X=train.features,
        y=train.labels,
        z=config.z_rule.resolve(train.labels),
        c_l=np.full(n, config.c_l_value),
        reg_l=config.reg_l,
    )


def ridge_fit(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Minimizer of |Xw - y|^2 + alpha |w|^2 via the normal equations."""
    X = _check_matrix(X, "X")
    y = _check_shape(y, X.shape[:1], "y")
    _check_finite(y, "y")
    _check_real(alpha, "alpha", "positive")
    m = X.shape[1]
    return np.linalg.solve(X.T @ X + alpha * np.eye(m), X.T @ y)


def _method_grid(method: str, config: BenchmarkConfig) -> list[tuple[str, dict]]:
    if method == "ridge":
        return [(f"alpha={a:g}", {"alpha": a}) for a in config.ridge_alpha_grid]
    if method == "bayes-adam":
        return [
            (f"lr={lr:g},batch={b}", {"lr": lr, "batch": b})
            for lr in config.adam_lr_grid
            for b in config.adam_batch_grid
        ]
    return [("default", {})]


def _train_method(method, params, spec, prior, config: BenchmarkConfig, train_seed: int):
    if method == "ridge":
        return ridge_fit(spec.X, spec.y, params["alpha"])
    if method == "nash":
        return nash_strategy(spec, prior, config.nash_iterations)
    if method == "bayes-fp":
        samples = sample_prior(prior, spec.n, config.fp_samples, train_seed)
        return bayes_fp(spec, samples, iterations=config.fp_iterations)
    adam = AdamConfig(  # bayes-adam, the one method left: BenchmarkConfig rejects others
        learning_rate=params["lr"],
        batch_size=min(params["batch"], config.adam_samples),
        epochs=config.adam_epochs,
        total_samples=config.adam_samples,
        seed=train_seed,
    )
    w, _ = bayes_adam(spec, prior, adam, record_objective=False)
    return w


def _run_cell(args) -> list[ResultRow]:
    """Train and evaluate every (method, grid config) for one (prior, repetition)."""
    data, config, prior_idx, rep = args
    prior = config.prior_grid[prior_idx]
    family, params_label = prior_label(prior)
    train, test = split(
        data, config.train_n, config.test_n, derive_seed(config.seed, "split", rep)
    )
    spec = _train_spec(train, config)
    eval_seed = derive_seed(config.seed, "eval", prior_idx, rep)

    adversary_w = None
    if config.two_equilibria:
        # the generator anticipates the equilibrium model of the test-side
        # game, fitted once per cell with Adam's default hyperparameters
        adam = {"lr": AdamConfig.learning_rate, "batch": AdamConfig.batch_size}
        adversary_w = _train_method("bayes-adam", adam, _train_spec(test, config), prior, config,
                                    derive_seed(config.seed, "testside", prior_idx, rep))

    fits = []  # (method, label, weights or None, training error)
    for method in config.methods:
        for label, params in _method_grid(method, config):
            train_seed = derive_seed(config.seed, "train", prior_idx, rep, method, label)
            try:
                w, error = _train_method(method, params, spec, prior, config, train_seed), ""
            except Exception as exc:  # noqa: BLE001 - cell failures must not kill the run
                w, error = None, str(exc)
            fits.append((method, label, w, error))

    # Every fit is scored on the same draws, drawn after the last fit so that
    # they are never held beside a fit's sample blocks.
    rows = []
    test_weights = None
    for method, label, w, error in fits:
        score = float("nan")
        if w is not None:
            try:
                if test_weights is None:
                    test_weights = sample_prior(prior, len(test), config.test_draws, eval_seed)
                score = evaluate(w, test, config.z_rule, test_weights, adversary_w=adversary_w)
            except Exception as exc:  # noqa: BLE001 - as for training
                error = str(exc)
        rows.append(ResultRow(method, family, params_label, rep, score, label, error))
    return rows


def run_benchmark(config: BenchmarkConfig, data: Dataset, workers: int = 1) -> BenchmarkResult:
    """Full sweep over priors, repetitions, methods and hyperparameter grids.

    Cells are independent and may run in a pool of up to ``workers`` processes,
    never more than one per cell; results are gathered in a deterministic
    order.  Per (method, prior), the grid configuration with the best mean
    RMSE across repetitions is selected for the report: a configuration with
    a failed repetition scores inf, and ties go to the first label in sorted
    order.
    """
    _check_count(workers, "workers")
    cells = [
        (data, config, prior_idx, rep)
        for prior_idx in range(len(config.prior_grid))
        for rep in range(config.repetitions)
    ]
    workers = min(workers, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it costs every run ~2 MB
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_rows = list(pool.map(_run_cell, cells))
    else:
        cell_rows = [_run_cell(cell) for cell in cells]

    # (prior index, method) -> config label -> rows.  The cells come in prior
    # and repetition order, and each lists its rows in method order.
    groups: dict[tuple, dict[str, list[ResultRow]]] = {}
    for (_, _, prior_idx, _), rows in zip(cells, cell_rows):
        for row in rows:
            by_config = groups.setdefault((prior_idx, row.method), {})
            by_config.setdefault(row.config_label, []).append(row)

    def _mean_or_inf(rows):
        values = [r.rmse for r in rows]
        return float("inf") if any(math.isnan(v) for v in values) else float(np.mean(values))

    selected_rows: list[ResultRow] = []
    aggregates = []
    for by_config in groups.values():
        best_label = min(sorted(by_config), key=lambda lbl: _mean_or_inf(by_config[lbl]))
        chosen = by_config[best_label]
        selected_rows.extend(chosen)
        values = [r.rmse for r in chosen if not math.isnan(r.rmse)]
        aggregates.append(
            {
                "method": chosen[0].method,
                "prior_family": chosen[0].prior_family,
                "prior_params": chosen[0].prior_params,
                "config": best_label,
                "mean_rmse": float(np.mean(values)) if values else None,
                "std_rmse": float(np.std(values)) if values else None,
                "failures": sum(1 for r in chosen if r.error),
            }
        )
    return BenchmarkResult(rows=selected_rows, aggregates=aggregates)


# The size presets read by ``bayesgame benchmark --scale``; desk's are the defaults.
_PRESET_SIZES = {"paper": dict(train_n=500, test_n=500, repetitions=10, test_draws=500)}
_PRESET_SIZES["desk"] = {name: getattr(BenchmarkConfig, name) for name in _PRESET_SIZES["paper"]}


def desk_config(priors, seed: int = 0, **overrides) -> BenchmarkConfig:
    """Desk-scale preset: 200/200 split, 3 repetitions, 100 test draws."""
    return BenchmarkConfig(tuple(priors), seed=seed, **overrides)

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bayesgame
from bayesgame import experiments, quadratic
from bayesgame.experiments import (
    _PRESET_SIZES,
    BenchmarkConfig,
    Dataset,
    ZRule,
    derive_seed,
    evaluate,
    load_spambase,
    prior_label,
    ridge_fit,
    rmse,
    run_benchmark,
    split,
    write_dataset_csv,
)
from bayesgame.game import (
    FinitePrior,
    GameSpec,
    GammaPrior,
    GaussianPrior,
    LogNormalPrior,
    sample_prior,
)
from bayesgame.quadratic import AdamConfig, bayes_adam, best_response


def synthetic_dataset(rng, rows=60, cols=57):
    labels = rng.integers(0, 2, size=rows).astype(float)
    direction = rng.normal(size=cols)
    features = rng.normal(size=(rows, cols)) + np.outer(labels - 0.5, direction)
    return features, labels


@pytest.fixture
def dataset_file(tmp_path, rng):
    features, labels = synthetic_dataset(rng)
    path = tmp_path / "synthetic.csv"
    write_dataset_csv(features, labels, path)
    return path, features, labels


def reference_load_spambase(path):
    """The loader as written before numpy's reader: line by line, then standardized."""
    rows = []
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 58:
                raise ValueError(
                    f"{path}:{lineno}: expected 58 comma-separated values, found {len(parts)}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            if values[-1] not in (0.0, 1.0):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1")
            rows.append(values[:-1])
            labels.append(values[-1])
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    features = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=float)
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds == 0, 1.0, stds)
    return Dataset((features - means) / stds, labels)


def load_outcome(loader, path):
    """The loaded arrays' bytes, or the type and message of the ValueError raised."""
    try:
        data = loader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return data.features.shape, data.features.tobytes(), data.labels.tobytes()


NUMBER = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-99, 99).map(str))
# fields only Python's float reads (1_0, " 2 "), that neither reads, and non-finite ones
ODD_FIELD = st.one_of(
    st.text(alphabet="0123456789.e-_# ", max_size=4),
    st.sampled_from(["nan", "-inf", "1_0", " 2 ", "#1", ""]),
)
LABEL = st.sampled_from(["0", "1", "0.0", "1.0", " 1", "1\t", "0_0", "1_0", "-0", "2", "nan"])


@st.composite
def spambase_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "odd", "blank", "space", "width"]))
    if kind == "blank":
        return ""
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \t "]))
    width = draw(st.sampled_from([1, 57, 59])) if kind == "width" else 58
    numbers = draw(st.lists(NUMBER, min_size=1, max_size=4))  # cycled: drawing 57 is slow
    fields = [numbers[i % len(numbers)] for i in range(width - 1)] + [draw(LABEL)]
    if kind == "odd":
        fields[draw(st.integers(0, width - 1))] = draw(ODD_FIELD)
    return ",".join(fields)


class TestLoader:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(spambase_lines(), max_size=5), st.sampled_from(["", "\n", "\r\n"]))
    def test_same_table_or_message_as_the_line_parser(self, tmp_path_factory, lines, end):
        path = tmp_path_factory.getbasetemp() / "property.csv"
        path.write_bytes((end or "\n").join(lines).encode() + end.encode())
        expected = load_outcome(reference_load_spambase, path)
        assert load_outcome(load_spambase, path) == expected

    def test_three_line_fixture_exact(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rows = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.5], [1.0, 1.0, 1.0]])
        labels = np.array([1.0, 0.0, 1.0])
        with open(path, "w") as fh:
            for row, label in zip(rows, labels):
                fh.write(",".join(str(v) for v in row) + f",{int(label)}\n")
        # loader is fixed to the 58-column format; pad the fixture with constant columns
        padded = tmp_path / "padded.csv"
        wide = np.zeros((3, 57))
        wide[:, :3] = rows
        wide[:, 3] = 7.0
        write_dataset_csv(wide, labels, padded)
        data = load_spambase(padded)
        expected = (rows - rows.mean(axis=0)) / rows.std(axis=0)
        assert np.array_equal(data.features[:, :3], expected)
        # a constant column has std 0: it is centred and not scaled, so it reads 0
        assert np.array_equal(data.features[:, 3:], np.zeros((3, 54)))
        assert np.array_equal(data.labels, labels)

    def test_round_trip_bitwise(self, dataset_file):
        path, features, labels = dataset_file
        data = load_spambase(path)
        assert np.all(features.std(axis=0) > 0)
        expected = (features - features.mean(axis=0)) / features.std(axis=0)
        assert np.array_equal(data.features, expected)
        assert np.array_equal(data.labels, labels)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = ",".join(["0.0"] * 57) + ",1"
        short = ",".join(["0.0"] * 56) + ",1"  # 57 columns
        path.write_text(f"{good}\n{short}\n")
        with pytest.raises(ValueError, match=r":2: expected 58"):
            load_spambase(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = ",".join(["0.0"] * 57) + ",1"
        bad = ",".join(["0.0"] * 56) + ",spam,0"
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(ValueError, match=r":2: non-numeric"):
            load_spambase(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(["0.0"] * 57) + ",2\n")
        with pytest.raises(ValueError, match="label"):
            load_spambase(path)

    def test_standardization_applied(self, dataset_file):
        path, _, _ = dataset_file
        data = load_spambase(path)
        assert data.features.mean(axis=0) == pytest.approx(np.zeros(57), abs=1e-12)
        assert data.features.std(axis=0) == pytest.approx(np.ones(57))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_spambase(tmp_path / "missing.csv")


class TestWriter:
    @pytest.mark.parametrize("label_dtype", [float, int, bool])
    def test_bytes_match_the_repr_format(self, tmp_path, rng, label_dtype):
        features, labels = synthetic_dataset(rng)
        features[0, :4] = [0.1, -0.0, 1e-300, 2.0**60]
        path = tmp_path / "out.csv"
        write_dataset_csv(features, labels.astype(label_dtype), path)
        expected = "".join(",".join(repr(float(v)) for v in row) + f",{int(label)}\n"
                           for row, label in zip(features, labels))
        assert path.read_bytes() == expected.encode()


class TestSplit:
    def test_exhaustive_partition(self, rng):
        features, labels = synthetic_dataset(rng, rows=30)
        data = Dataset(features, labels)
        train, test = split(data, 18, 12, seed=4)
        stacked = np.vstack([train.features, test.features])
        assert sorted(map(tuple, stacked)) == sorted(map(tuple, features))

    def test_deterministic(self, rng):
        features, labels = synthetic_dataset(rng, rows=40)
        data = Dataset(features, labels)
        a = split(data, 10, 10, seed=9)
        b = split(data, 10, 10, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_disjoint_over_many_seeds(self, rng):
        features, labels = synthetic_dataset(rng, rows=25)
        data = Dataset(features, labels)
        keys = [tuple(row) for row in features]
        assert len(set(keys)) == len(keys)
        for seed in range(100):
            train, test = split(data, 12, 13, seed=seed)
            train_keys = {tuple(r) for r in train.features}
            test_keys = {tuple(r) for r in test.features}
            assert not train_keys & test_keys


class TestRmse:
    def test_exact_predictions(self, rng):
        y = rng.normal(size=12)
        assert rmse(y, y) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 8, elements=st.floats(-10, 10)),
        arrays(np.float64, 8, elements=st.floats(-10, 10)),
        st.permutations(list(range(8))),
    )
    def test_row_permutation_invariant(self, pred, y, perm):
        perm = np.asarray(perm)
        assert rmse(pred[perm], y[perm]) == pytest.approx(rmse(pred, y), nan_ok=True)


class TestRidgeFit:
    def test_zero_targets(self, rng):
        X = rng.normal(size=(5, 3))
        assert ridge_fit(X, np.zeros(5), 0.5) == pytest.approx(np.zeros(3))

    def test_hand_value(self):
        # (4 + 1) w = 2
        assert ridge_fit(np.array([[2.0]]), np.array([1.0]), 1.0) == pytest.approx([0.4])

    def test_normal_equations_residual(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            alpha = float(rng.uniform(0.05, 3.0))
            w = ridge_fit(X, y, alpha)
            resid = np.linalg.norm((X.T @ X + alpha * np.eye(m)) @ w - X.T @ y)
            assert resid <= 1e-10


class TestEvaluate:
    def test_zero_prior_equals_unperturbed_rmse(self, rng):
        features, labels = synthetic_dataset(rng, rows=20)
        data = Dataset(features, labels)
        w = rng.normal(size=57) * 0.1
        prior = FinitePrior(atoms=np.zeros((1, 20)), probs=np.array([1.0]))
        got = evaluate(w, data, ZRule("flip"), sample_prior(prior, 20, 5, seed=0))
        assert got == pytest.approx(rmse(features @ w, labels))

    def test_perfect_model_zero_prior(self, rng):
        features = rng.normal(size=(15, 57))
        w = rng.normal(size=57)
        labels = np.zeros(15)  # only 0/1 labels are valid; use the zero vector
        data = Dataset(features - np.outer(features @ w, w) / (w @ w), labels)
        # build labels = predictions = 0 by projecting features orthogonal to w
        prior = FinitePrior(atoms=np.zeros((1, 15)), probs=np.array([1.0]))
        draws = sample_prior(prior, 15, 3, seed=1)
        assert evaluate(w, data, ZRule("zero"), draws) == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_transformation(self, rng):
        features, labels = synthetic_dataset(rng, rows=10)
        data = Dataset(features, labels)
        w = 0.05 * rng.normal(size=57)
        prior = GaussianPrior(mean=1.0, std=1.0)
        seed = 42
        draws = sample_prior(prior, 10, 6, seed)
        z = 1.0 - labels
        expected = np.mean(
            [rmse(best_response(w, features, z, c) @ w, labels) for c in draws]
        )
        got = evaluate(w, data, ZRule("flip"), draws)
        assert got == pytest.approx(expected)

    def test_doubling_draws_stays_in_confidence_band(self, rng):
        features, labels = synthetic_dataset(rng, rows=20)
        data = Dataset(features, labels)
        w = 0.05 * rng.normal(size=57)
        prior = GaussianPrior(mean=1.0, std=2.0)
        seed = 7
        draws = sample_prior(prior, 20, 200, seed)
        base = evaluate(w, data, ZRule("flip"), draws)
        doubled = evaluate(w, data, ZRule("flip"), sample_prior(prior, 20, 400, seed))
        z = 1.0 - labels
        per_draw = np.array(
            [rmse(best_response(w, features, z, c) @ w, labels) for c in draws]
        )
        band = 3.0 * per_draw.std() / math.sqrt(200)
        assert abs(doubled - base) <= band

    def test_adversary_model_override(self, rng):
        features, labels = synthetic_dataset(rng, rows=12)
        data = Dataset(features, labels)
        w = 0.1 * rng.normal(size=57)
        w_adv = 0.1 * rng.normal(size=57)
        prior = GaussianPrior(mean=1.0, std=1.0)
        draws = sample_prior(prior, 12, 4, seed=3)
        default = evaluate(w, data, ZRule("flip"), draws)
        overridden = evaluate(w, data, ZRule("flip"), draws, adversary_w=w_adv)
        assert default != overridden


class TestBenchmark:
    def make_config(self, **overrides):
        params = dict(
            train_n=20, test_n=20, repetitions=2, test_draws=5,
            prior_grid=(FinitePrior(atoms=np.zeros((1, 20)), probs=np.array([1.0])),),
            methods=("ridge",),
            ridge_alpha_grid=(0.1, 1.0),
            adam_lr_grid=(0.01,), adam_batch_grid=(8,),
            adam_epochs=2, adam_samples=16, fp_samples=8,
            seed=0,
        )
        params.update(overrides)
        return BenchmarkConfig(**params)

    def test_ridge_only_smoke(self, rng):
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        result = run_benchmark(self.make_config(), data)
        assert len(result.rows) == 2  # one selected alpha, two repetitions
        assert all(r.method == "ridge" for r in result.rows)
        assert all(np.isfinite(r.rmse) for r in result.rows)
        assert len(result.aggregates) == 1
        assert result.aggregates[0]["mean_rmse"] is not None

    def test_deterministic(self, rng):
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        config = self.make_config(methods=("ridge", "nash", "bayes-fp", "bayes-adam"))
        r1 = run_benchmark(config, data)
        r2 = run_benchmark(config, data)
        assert [(r.method, r.repetition, r.rmse) for r in r1.rows] == [
            (r.method, r.repetition, r.rmse) for r in r2.rows
        ]

    def test_worker_pool_matches_serial(self, rng):
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        config = self.make_config(repetitions=2)
        serial = run_benchmark(config, data, workers=1)
        parallel = run_benchmark(config, data, workers=2)
        assert [(r.method, r.repetition, r.rmse) for r in serial.rows] == [
            (r.method, r.repetition, r.rmse) for r in parallel.rows
        ]

    def test_pool_starts_at_most_one_process_per_cell(self, rng, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:  # runs the cells here, recording the pool size asked for
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        config = self.make_config(repetitions=3)  # three cells
        serial = run_benchmark(config, data)
        for workers in (2, 3, 64):
            rows = run_benchmark(config, data, workers=workers).rows
            assert [(r.method, r.repetition, r.rmse) for r in rows] == [
                (r.method, r.repetition, r.rmse) for r in serial.rows
            ]
        assert sizes == [2, 3, 3]

    def test_cell_failure_recorded_not_fatal(self, rng, monkeypatch):
        def failing_bayes_fp(*args, **kwargs):
            raise ValueError("bayes_fp failed")

        monkeypatch.setattr(experiments, "bayes_fp", failing_bayes_fp)
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        config = self.make_config(methods=("bayes-fp", "ridge"))
        result = run_benchmark(config, data)
        fp_rows = [r for r in result.rows if r.method == "bayes-fp"]
        assert fp_rows and all("bayes_fp failed" in r.error and math.isnan(r.rmse)
                               for r in fp_rows)
        ridge_rows = [r for r in result.rows if r.method == "ridge"]
        assert ridge_rows and all(np.isfinite(r.rmse) for r in ridge_rows)
        payload = result.to_json()
        assert payload["errors"]

    def test_evaluation_failure_recorded_not_fatal(self, rng, monkeypatch):
        def failing_evaluate(*args, **kwargs):
            raise ValueError("evaluate failed")

        monkeypatch.setattr(experiments, "evaluate", failing_evaluate)
        features, labels = synthetic_dataset(rng)
        result = run_benchmark(self.make_config(methods=("ridge",)), Dataset(features, labels))
        assert result.rows and all(r.error == "evaluate failed" and math.isnan(r.rmse)
                                   for r in result.rows)
        assert result.to_json()["errors"]

    def test_grid_selection_picks_best_mean(self, rng):
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        config = self.make_config(ridge_alpha_grid=(1e-6, 1e6))
        result = run_benchmark(config, data)
        assert len({r.config_label for r in result.rows}) == 1

    def test_two_equilibria_flag(self, rng):
        # needs a nonzero prior: a zero-atom prior makes the transformation
        # the identity under either anticipated model
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        prior = (GaussianPrior(mean=1.0, std=1.0),)
        base = run_benchmark(self.make_config(prior_grid=prior), data)
        twoeq = run_benchmark(self.make_config(prior_grid=prior, two_equilibria=True), data)
        assert base.rows[0].rmse != twoeq.rows[0].rmse

    def test_sweep_evaluates_no_full_sample_objective(self, rng, monkeypatch):
        # the Adam fits and the two-equilibria generator model discard the
        # per-epoch objective, so the sweep must never compute it
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        config = self.make_config(
            prior_grid=(GaussianPrior(mean=1.0, std=1.0),), repetitions=1,
            methods=("bayes-adam", "ridge"), two_equilibria=True,
        )
        plain = run_benchmark(config, data)
        calls = []
        for name in ("stochastic_objective", "_stochastic_objective"):
            original = getattr(quadratic, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(quadratic, name, counting)
        counted = run_benchmark(config, data)
        assert calls == []
        assert counted.rows == plain.rows
        # the counters do see the objective when it is recorded
        adam = AdamConfig(batch_size=8, epochs=2, total_samples=16)
        spec = GameSpec(X=features[:20], y=labels[:20], z=1.0 - labels[:20], c_l=np.ones(20))
        bayes_adam(spec, GaussianPrior(mean=1.0, std=1.0), adam)
        assert len(calls) == 2

    def test_paper_scale_config_expressible(self):
        priors = (GaussianPrior(mean=1.0, std=1.0),)
        config = BenchmarkConfig(prior_grid=priors, **_PRESET_SIZES["paper"])
        assert (config.train_n, config.test_n) == (500, 500)
        assert (config.repetitions, config.test_draws) == (10, 500)
        assert config.adam_lr_grid == (0.001, 0.01, 0.1)
        assert config.adam_batch_grid == (32, 64, 128)
        assert config.ridge_alpha_grid == (0.01, 0.1, 1.0)
        assert config.adam_samples == 1000 and config.adam_epochs == 20
        assert config.c_l_value == 0.1

    def test_numpy_integer_counts_run_as_python_ints(self, rng):
        data = Dataset(*synthetic_dataset(rng))
        common = dict(methods=("bayes-adam", "ridge"),
                      prior_grid=(GaussianPrior(mean=1.0, std=1.0),))
        numpy_ints = self.make_config(
            adam_batch_grid=(np.int64(8),), adam_epochs=np.int32(2), adam_samples=np.int64(16),
            train_n=np.int64(20), seed=np.int64(0), **common,
        )
        result = run_benchmark(numpy_ints, data)
        assert not any(r.error for r in result.rows)
        assert result.rows == run_benchmark(self.make_config(**common), data).rows

    def test_cell_draws_its_test_weights_once(self, rng, monkeypatch):
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        prior = GaussianPrior(mean=1.0, std=1.0)
        config = self.make_config(prior_grid=(prior,), methods=("ridge", "nash"),
                                  ridge_alpha_grid=(0.01, 0.1, 1.0))
        eval_seed = derive_seed(config.seed, "eval", 0, 1)
        events = []
        train = experiments._train_method

        def recording_draw(*args):
            events.append(("draw", args[-1]))
            return sample_prior(*args)

        def recording_train(method, *args):
            events.append(("train", method))
            return train(method, *args)

        monkeypatch.setattr(experiments, "sample_prior", recording_draw)
        monkeypatch.setattr(experiments, "_train_method", recording_train)
        rows = experiments._run_cell((data, config, 0, 1))
        # once, and after every fit: the draws are never held beside a fit's samples
        assert events == [("train", "ridge")] * 3 + [("train", "nash"), ("draw", eval_seed)]
        # each fit scores as on its own draws of the same seed
        train, test = split(data, 20, 20, derive_seed(config.seed, "split", 1))
        draws = sample_prior(prior, 20, config.test_draws, eval_seed)
        for row, alpha in zip(rows, config.ridge_alpha_grid):
            w = ridge_fit(train.features, train.labels, alpha)
            assert row.rmse == evaluate(w, test, config.z_rule, draws)
        assert [r.method for r in rows] == ["ridge"] * 3 + ["nash"]

    def test_equal_priors_are_separate_entries(self, rng):
        features, labels = synthetic_dataset(rng)
        prior = GaussianPrior(mean=1.0, std=1.0)
        config = self.make_config(prior_grid=(prior, prior))
        result = run_benchmark(config, Dataset(features, labels))
        assert len(result.aggregates) == 2
        assert len(result.rows) == 4  # two repetitions per grid entry, none shared
        first, second = result.rows[:2], result.rows[2:]
        assert [r.rmse for r in first] != [r.rmse for r in second]  # own evaluation seeds

    def test_csv_output(self, tmp_path, rng):
        features, labels = synthetic_dataset(rng)
        data = Dataset(features, labels)
        result = run_benchmark(self.make_config(), data)
        path = tmp_path / "results.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,prior_family,prior_params,repetition,rmse"
        assert len(lines) == 3


class TestMisc:
    def test_import_loads_no_process_pool(self):
        pool = "('multiprocessing', 'concurrent')"
        code = ("import sys, bayesgame, bayesgame.cli; "
                f"print(sorted(m for m in sys.modules if m.startswith({pool})))")
        src = os.path.dirname(os.path.dirname(bayesgame.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_prior_labels(self):
        assert prior_label(GaussianPrior(1.0, 4.0)) == ("gaussian", "mean=1,std=4")
        assert prior_label(GammaPrior(2.0, 0.5)) == ("gamma", "shape=2,scale=0.5")
        assert prior_label(LogNormalPrior(0.0, 1.0)) == ("lognormal", "mu=0,sigma=1")
        finite = FinitePrior(atoms=np.zeros((3, 2)), probs=np.full(3, 1 / 3))
        assert prior_label(finite) == ("finite", "K=3")

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, "split", 1) == derive_seed(0, "split", 1)
        assert derive_seed(np.int64(0), "split", 1) == derive_seed(0, "split", 1)
        assert derive_seed(0, "split", 1) != derive_seed(0, "split", 2)
        assert derive_seed(0, "split", 1) != derive_seed(1, "split", 1)

    def test_zrule_kinds(self):
        labels = np.array([0.0, 1.0])
        assert ZRule().kind == "flip"
        assert ZRule("flip").resolve(labels) == pytest.approx([1.0, 0.0])
        assert ZRule("zero").resolve(labels) == pytest.approx([0.0, 0.0])

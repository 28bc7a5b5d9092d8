import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from proxkern import eigencore, evaluate
from proxkern import (
    Kind,
    NystromFactors,
    ProximityMatrix,
    RowOracle,
    benchmark_scaling,
    convergence_probe,
    crossvalidate,
    double_center,
    extend_features,
    fit_corrected_model,
    fit_corrected_model_from_factors,
    fit_ridge_classifier,
    lmds_fit,
    lmds_project,
    loglog_slope,
    pinv_sym,
    predict_classes,
    proximity_fidelity,
    select_landmarks,
    spearman_rho,
    stratified_folds,
)

from conftest import patch_workers, random_indefinite_dissimilarity, random_squared_dissimilarity

SRC = Path(__file__).resolve().parent.parent / "src"


def loop_average_ranks(x):
    """Reference: average ranks by a walk over the sorted values."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x))
    ranks[order] = np.arange(len(x), dtype=np.float64)
    xs = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and xs[j + 1] == xs[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def loop_sample_pairs(n, pairs, seed):
    """Reference: the pair sampler as a set filled one draw at a time."""
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < pairs:
        i = rng.integers(0, n, size=2 * (pairs - len(seen)))
        j = rng.integers(0, n, size=len(i))
        for a, b in zip(i, j):
            if a == b:
                continue
            seen.add((int(min(a, b)), int(max(a, b))))
            if len(seen) == pairs:
                break
    pairs_arr = np.array(sorted(seen), dtype=np.int64)
    return pairs_arr[:, 0], pairs_arr[:, 1]


def reference_crossvalidate(matrix, labels, m, mode="flip", folds=10, repeats=10, seed=0,
                            method="corrected"):
    """Reference: the CV loop that sliced the landmark columns and inverted the core itself."""
    n = matrix.n
    accuracies = []
    for repeat_seq in np.random.SeedSequence(seed).spawn(repeats):
        rng = np.random.default_rng(repeat_seq)
        landmarks = select_landmarks(n, m, rng)
        fold_sets = stratified_folds(labels, folds, rng)
        rows = matrix.values[:, landmarks]
        core = rows[landmarks]
        if method == "corrected":
            core_pinv = pinv_sym(core)
        elif method == "lmds":
            embedding = lmds_fit(core)
        for test_idx in fold_sets:
            train_idx = np.setdiff1d(np.arange(n), test_idx)
            f_train, f_test = rows[train_idx], rows[test_idx]
            if method == "lmds":
                f_train, f_test = lmds_project(embedding, f_train), lmds_project(embedding, f_test)
            elif method == "corrected":
                factors = NystromFactors(matrix.kind, landmarks, f_train, core, core_pinv)
                model = fit_corrected_model_from_factors(factors, mode)
                f_test = extend_features(model, f_test)
                f_train = model.cross @ model.r
            weights = fit_ridge_classifier(f_train, labels[train_idx])
            predicted = predict_classes(f_test, weights)
            accuracies.append(float((predicted == labels[test_idx]).mean()))
    return np.array(accuracies)


class TestSpearman:
    def test_identical(self):
        assert spearman_rho([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_textbook_value(self):
        # one swapped neighbour pair: 1 - 6*2 / (4*15) = 0.8
        assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_tie_handling(self):
        # average ranks keep the correlation symmetric under tie permutations
        rho = spearman_rho([1.0, 1.0, 2.0], [5.0, 5.0, 9.0])
        assert rho == pytest.approx(1.0)

    @pytest.mark.parametrize("levels", [2, 7, 50, None])
    def test_average_ranks_match_loop(self, levels):
        rng = np.random.default_rng(8)
        for size in (1, 2, 3, 10, 101, 1000):
            if levels is None:  # untied
                x = rng.standard_normal(size)
            else:  # many ties, including negative and zero values
                x = (rng.integers(0, levels, size=size) - levels // 2) / 4.0
            assert np.array_equal(evaluate._average_ranks(x), loop_average_ranks(x))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(50)
            b = rng.standard_normal(50)
            rho = spearman_rho(a, b)
            # strictly monotone map of either argument keeps all ranks
            a2 = np.exp(2.0 * a) + 1.0
            b2 = np.cbrt(b) * 3.0
            assert spearman_rho(a2, b) == pytest.approx(rho, abs=1e-12)
            assert spearman_rho(a, b2) == pytest.approx(rho, abs=1e-12)


class TestProximityFidelity:
    def test_identical_pipelines_near_one(self):
        rng = np.random.default_rng(1)
        d = random_indefinite_dissimilarity(60, rng)
        exact = fit_corrected_model(d, landmarks=np.arange(60), mode="flip")
        approx = fit_corrected_model(d, landmarks=np.arange(60), mode="flip")
        assert proximity_fidelity(exact, approx) >= 0.999

    def test_requires_matching_rows(self):
        rng = np.random.default_rng(2)
        d1 = random_indefinite_dissimilarity(20, rng)
        d2 = random_indefinite_dissimilarity(25, rng)
        a = fit_corrected_model(d1, m=5, mode="flip")
        b = fit_corrected_model(d2, m=5, mode="flip")
        with pytest.raises(ValueError, match="row sets"):
            proximity_fidelity(a, b)

    def test_sampled_pairs_deterministic(self):
        rng = np.random.default_rng(3)
        d = random_indefinite_dissimilarity(40, rng)
        exact = fit_corrected_model(d, landmarks=np.arange(40), mode="flip")
        approx = fit_corrected_model(d, m=10, mode="flip", seed=5)
        r1 = proximity_fidelity(exact, approx, pairs=100, seed=9)
        r2 = proximity_fidelity(exact, approx, pairs=100, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize(
        "n, pairs, seed",
        [(800, 200_000, 0), (3000, 200_000, 9), (1000, 1000, 3), (50, 1000, 1), (40, 100, 9)],
    )
    def test_sampled_pairs_match_loop(self, n, pairs, seed):
        rows, cols = evaluate._sample_pairs(n, pairs, seed)
        ref_rows, ref_cols = loop_sample_pairs(n, pairs, seed)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)

    def test_pair_count_validated(self):
        rng = np.random.default_rng(4)
        d = random_indefinite_dissimilarity(10, rng)
        model = fit_corrected_model(d, m=4, mode="flip")
        with pytest.raises(ValueError, match="pairs"):
            proximity_fidelity(model, model, pairs=1)


class TestRidgeClassifier:
    def test_separable_toy(self):
        rng = np.random.default_rng(5)
        n = 40
        features = np.vstack(
            [rng.standard_normal((n, 2)) + [4.0, 0.0], rng.standard_normal((n, 2)) - [4.0, 0.0]]
        )
        labels = np.array([0] * n + [1] * n)
        weights = fit_ridge_classifier(features, labels, lam=1e-6)
        assert (predict_classes(features, weights) == labels).mean() == 1.0

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
    def test_non_positive_lambda_raises(self, lam):
        features = np.random.default_rng(7).standard_normal((10, 3))
        with pytest.raises(ValueError, match="lam must be positive"):
            fit_ridge_classifier(features, np.arange(10) % 2, lam=lam)

    def test_single_class_constant_predictor(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((10, 3))
        weights = fit_ridge_classifier(features, np.zeros(10, dtype=int))
        assert np.all(predict_classes(rng.standard_normal((5, 3)), weights) == 0)

    def test_duplicate_samples_rescale_lambda(self):
        rng = np.random.default_rng(7)
        features = rng.standard_normal((15, 4))
        labels = rng.integers(0, 3, size=15)
        lam = 0.37
        w_once = fit_ridge_classifier(features, labels, lam=lam)
        doubled = np.vstack([features, features])
        w_twice = fit_ridge_classifier(doubled, np.concatenate([labels, labels]), lam=2 * lam)
        assert np.abs(w_once - w_twice).max() <= 1e-8

    def test_empty_feature_map_rejected(self):
        with pytest.raises(ValueError, match="feature"):
            fit_ridge_classifier(np.zeros((5, 0)), np.zeros(5, dtype=int))

    def test_feature_form_equals_kernel_form(self):
        """Primal weights through F agree with the kernel-space ridge
        solution: F (F^T F + lam I)^-1 F^T y = K (K + lam I)^-1 y."""
        rng = np.random.default_rng(8)
        for _ in range(5):
            n, k = int(rng.integers(10, 80)), int(rng.integers(2, 6))
            features = rng.standard_normal((n, k))
            labels = rng.integers(0, 3, size=n)
            lam = 0.1
            weights = fit_ridge_classifier(features, labels, lam=lam)
            primal_scores = features @ weights
            kernel = features @ features.T
            targets = -np.ones((n, 3))
            targets[np.arange(n), labels] = 1.0
            dual_scores = kernel @ np.linalg.solve(kernel + lam * np.eye(n), targets)
            assert np.array_equal(primal_scores.argmax(1), dual_scores.argmax(1))


class TestStratifiedFolds:
    def test_partitions_everything(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        folds = stratified_folds(labels, 3, np.random.default_rng(0))
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(10))

    def test_every_train_split_sees_every_class(self):
        labels = np.array([0] * 5 + [1] * 2 + [2] * 7)
        folds = stratified_folds(labels, 2, np.random.default_rng(1))
        for test in folds:
            train = np.setdiff1d(np.arange(len(labels)), test)
            assert set(labels[train]) == {0, 1, 2}

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError, match="two members"):
            stratified_folds(np.array([0, 0, 1]), 2, np.random.default_rng(2))

    def test_more_folds_than_the_largest_class_rejected(self):
        labels = np.array([0, 0, 0, 1, 1])
        folds = stratified_folds(labels, 3, np.random.default_rng(3))
        assert all(len(fold) for fold in folds)
        with pytest.raises(ValueError, match="largest class"):
            stratified_folds(labels, 4, np.random.default_rng(3))


@pytest.fixture(scope="module")
def small_ball():
    from proxkern import ball_dataset

    return ball_dataset(40, seed=2)


class TestCrossvalidate:

    def test_reproducible(self, small_ball):
        matrix, labels = small_ball
        a = crossvalidate(matrix, labels, m=10, mode="flip", folds=4, repeats=2, seed=3)
        b = crossvalidate(matrix, labels, m=10, mode="flip", folds=4, repeats=2, seed=3)
        assert np.array_equal(a.accuracies, b.accuracies)
        assert a.mean == b.mean

    def test_report_is_consistent(self, small_ball):
        matrix, labels = small_ball
        report = crossvalidate(matrix, labels, m=8, mode="flip", folds=4, repeats=2, seed=4)
        assert len(report.accuracies) == 8
        assert report.mean == pytest.approx(report.accuracies.mean())
        assert report.std == pytest.approx(report.accuracies.std())

    def test_methods_run(self, small_ball):
        matrix, labels = small_ball
        for method in ("corrected", "lmds", "dspace"):
            report = crossvalidate(
                matrix, labels, m=8, mode="flip", folds=4, repeats=1, seed=5, method=method
            )
            assert 0.0 <= report.mean <= 1.0

    def test_lmds_embedding_fitted_once_per_repeat(self, small_ball, monkeypatch):
        matrix, labels = small_ball
        calls = []
        fit = evaluate.lmds_fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(evaluate, "lmds_fit", counting_fit)
        crossvalidate(matrix, labels, m=8, folds=4, repeats=3, seed=5, method="lmds")
        assert len(calls) == 3

    def test_blocks_built_once_per_repeat_through_the_row_fetch(self, small_ball, monkeypatch):
        matrix, labels = small_ball
        builds, fetched = [], []
        build, row = evaluate.nystrom_factors, RowOracle.row

        def counting_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counting_row(self, i):
            out = row(self, i)
            fetched.append(len(out))
            return out

        monkeypatch.setattr(evaluate, "nystrom_factors", counting_build)
        monkeypatch.setattr(RowOracle, "row", counting_row)
        crossvalidate(matrix, labels, m=8, folds=4, repeats=3, seed=5)
        assert len(builds) == 3
        assert len(fetched) == 3 * 8
        assert sum(fetched) == 3 * matrix.n * 8

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize(
        "method, mode", [("corrected", "flip"), ("corrected", "clip"), ("lmds", "flip"),
                         ("dspace", "flip")]
    )
    def test_accuracies_keep_the_bits_of_the_column_slicing_loop(
        self, small_ball, method, mode, seed
    ):
        matrix, labels = small_ball
        kwargs = dict(m=12, mode=mode, folds=4, repeats=2, seed=seed, method=method)
        report = crossvalidate(matrix, labels, **kwargs)
        assert np.array_equal(report.accuracies, reference_crossvalidate(matrix, labels, **kwargs))

    def test_lmds_needs_dissimilarities(self):
        rng = np.random.default_rng(9)
        sim = ProximityMatrix(Kind.SIMILARITY, np.eye(20))
        with pytest.raises(ValueError, match="dissimilarit"):
            crossvalidate(sim, np.array([0, 1] * 10), m=4, method="lmds")

    def test_empty_folds_rejected(self):
        from proxkern import ball_dataset

        matrix, labels = ball_dataset(5)
        with pytest.raises(ValueError, match="largest class"):
            crossvalidate(matrix, labels, m=4, folds=8, repeats=1)

    def test_zero_repeats_rejected(self, small_ball):
        matrix, labels = small_ball
        with pytest.raises(ValueError, match="at least one repeat"):
            crossvalidate(matrix, labels, m=8, folds=4, repeats=0)

    @pytest.mark.parametrize(
        "bad", [dict(mode="bogus"), dict(lam=-1.0), dict(lam=0.0), dict(lam=float("nan"))]
    )
    def test_bad_mode_or_lam_fails_before_any_fetch(self, small_ball, monkeypatch, bad):
        matrix, labels = small_ball

        def no_build(*args, **kwargs):
            pytest.fail("crossvalidate built landmark factors for a call it rejects")

        monkeypatch.setattr(evaluate, "nystrom_factors", no_build)
        with pytest.raises(ValueError, match="mode" if "mode" in bad else "lam"):
            crossvalidate(matrix, labels, m=8, folds=4, repeats=1, **bad)

    def test_baselines_ignore_the_mode(self, small_ball):
        matrix, labels = small_ball
        kwargs = dict(m=8, folds=4, repeats=1, seed=5, method="lmds")
        report = crossvalidate(matrix, labels, mode="bogus", **kwargs)
        assert np.array_equal(report.accuracies, crossvalidate(matrix, labels, **kwargs).accuracies)

    def test_uncorrected_indefinite_rejected(self, small_ball):
        matrix, labels = small_ball
        with pytest.raises(ValueError, match="clip or flip"):
            crossvalidate(matrix, labels, m=8, mode="none", folds=4, repeats=1, seed=6)

    def test_flip_beats_dspace_on_ball_data(self, small_ball):
        """Features of raw landmark dissimilarities ignore the negative
        spectrum information; the flip-corrected kernel must not."""
        matrix, labels = small_ball
        flip = crossvalidate(matrix, labels, m=80, mode="flip", folds=4, repeats=2, seed=7)
        dspace = crossvalidate(
            matrix, labels, m=80, mode="flip", folds=4, repeats=2, seed=7, method="dspace"
        )
        assert flip.mean > dspace.mean


# Prints the probe's BLAS thread count, the usable CPUs and the task workers for four folds,
# and the workers that split an extension of 64 x 100 x 2001 multiply-adds (0 when it ran
# serially) and whether its block equals the serial product bit for bit.  With pooled workers
# it also compares a pooled crossvalidate with the same call run serially.
PROBE_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from proxkern import Kind, ProximityMatrix, ball_dataset, eigencore, evaluate, oos
from proxkern import fit_corrected_model

threads = eigencore._blas_threads()
out = {"threads": threads, "cpus": len(os.sched_getaffinity(0))}
out["workers"] = eigencore._workers(4, threads)
x = np.random.default_rng(2).standard_normal((2001, 6))
model = fit_corrected_model(ProximityMatrix(Kind.SIMILARITY, x @ x.T), m=100, seed=0)
rows = x[:64] @ x[model.landmarks].T
run_in_order, split = eigencore._run_in_order, [0]
def recording_run(task, items, workers):
    split[0] = workers
    return run_in_order(task, items, workers)
eigencore._run_in_order = recording_run
block = oos.extend_similarities(model, rows)
eigencore._run_in_order = run_in_order
out["split_workers"] = split[0]
out["split_same"] = block.tobytes() == ((rows @ model.w_star) @ model.cross.T).tobytes()
if out["workers"] > 1:
    matrix, labels = ball_dataset(30, seed=4)
    kwargs = dict(m=12, folds=4, repeats=2, seed=1)
    pooled = evaluate.crossvalidate(matrix, labels, **kwargs)
    eigencore._workers = lambda tasks, blas_threads: 1
    serial = evaluate.crossvalidate(matrix, labels, **kwargs)
    out["reports"] = [[r.blas_threads, r.fold_workers] for r in (pooled, serial)]
    out["same"] = bool(np.array_equal(pooled.accuracies, serial.accuracies))
print(json.dumps(out))
"""


def run_probe(blas_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    done = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture
def pool_ball():
    from proxkern import ball_dataset

    return ball_dataset(30, seed=4)


class TestFoldPool:
    @pytest.mark.parametrize(
        "method, mode", [("corrected", "flip"), ("corrected", "clip"), ("lmds", "flip"),
                         ("dspace", "flip")]
    )
    def test_pooled_folds_equal_serial_folds(self, pool_ball, monkeypatch, method, mode):
        matrix, labels = pool_ball
        kwargs = dict(m=12, mode=mode, folds=4, repeats=2, seed=3, method=method)
        reports = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a shared write would show
        try:
            for workers in (1, 2, 3):  # 3 workers split the 4 folds unevenly
                patch_workers(monkeypatch, workers)
                reports[workers] = crossvalidate(matrix, labels, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        for workers, report in reports.items():
            assert report.fold_workers == workers
            assert np.array_equal(report.accuracies, reports[1].accuracies)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fold_fit_cannot_write_the_shared_blocks(self, pool_ball, monkeypatch, workers):
        matrix, labels = pool_ball

        def writing_fit(factors, mode):
            factors.core_pinv[0, 0] = 0.0

        patch_workers(monkeypatch, workers)
        monkeypatch.setattr(evaluate, "fit_corrected_model_from_factors", writing_fit)
        with pytest.raises(ValueError, match="read-only"):
            crossvalidate(matrix, labels, m=12, folds=4, repeats=2, seed=3)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_fold_stops_the_folds_not_yet_started(self, pool_ball, monkeypatch, workers):
        matrix, labels = pool_ball
        calls = []

        def failing_fit(factors, mode):
            # folds 0 and 1 train on 44 rows and fail late, folds 2 and 3 on 46 and fail at once
            train_rows = factors.cross.shape[0]
            calls.append(train_rows)
            if train_rows == 44:
                time.sleep(0.05)
            raise ArithmeticError(f"fold fit on {train_rows} rows failed")

        patch_workers(monkeypatch, workers)
        monkeypatch.setattr(evaluate, "fit_corrected_model_from_factors", failing_fit)
        with pytest.raises(ArithmeticError, match="on 44 rows"):
            crossvalidate(matrix, labels, m=12, folds=4, repeats=2, seed=3)
        assert 1 <= len(calls) <= workers

    def test_the_helper_threads_are_kept_between_calls(self, pool_ball, monkeypatch):
        matrix, labels = pool_ball
        fold_accuracy, runners = evaluate._fold_accuracy, set()

        def recording_fold(*args, **kwargs):
            runners.add(threading.current_thread())
            return fold_accuracy(*args, **kwargs)

        patch_workers(monkeypatch, 2)
        monkeypatch.setattr(evaluate, "_fold_accuracy", recording_fold)
        for seed in range(3):
            report = crossvalidate(matrix, labels, m=12, folds=4, repeats=2, seed=seed)
            assert report.fold_workers == 2
        # the calling thread and one helper, the same one in every call
        assert len(runners - {threading.current_thread()}) <= 1

    def test_each_fold_thread_runs_on_a_cpu_of_its_own(self, pool_ball, monkeypatch):
        usable = os.sched_getaffinity(0)
        if len(usable) < 2:
            pytest.skip("a single usable CPU")
        matrix, labels = pool_ball
        fold_accuracy, cpu_sets = evaluate._fold_accuracy, {}

        def recording_fold(test_idx, *args, **kwargs):
            cpu_sets[threading.current_thread()] = os.sched_getaffinity(0)
            if len(test_idx) == 14:
                raise ArithmeticError("the folds that hold out 14 rows, the last two, fail")
            return fold_accuracy(test_idx, *args, **kwargs)

        patch_workers(monkeypatch, 2)
        monkeypatch.setattr(evaluate, "_fold_accuracy", recording_fold)
        with pytest.raises(ArithmeticError):
            crossvalidate(matrix, labels, m=12, folds=4, repeats=1, seed=1)
        assert all(len(cpus) == 1 and cpus <= usable for cpus in cpu_sets.values())
        assert len(set().union(*cpu_sets.values())) == len(cpu_sets)
        # the caller and the kept helper get their CPU sets back, a failing fold notwithstanding
        assert os.sched_getaffinity(0) == usable
        helper = eigencore._helper_pool(1, os.getpid())
        assert helper.submit(os.sched_getaffinity, 0).result() == usable

    def test_only_threads_that_take_every_cpu_are_pinned(self):
        usable = sorted(os.sched_getaffinity(0))
        cpus = len(usable)
        assert eigencore._thread_cpus(1) == [None]
        assert eigencore._thread_cpus(cpus + 1) == [None] * (cpus + 1)
        if cpus >= 2:
            assert eigencore._thread_cpus(cpus) == usable
        if cpus >= 3:
            assert eigencore._thread_cpus(2) == [None, None]

    def test_the_pool_is_kept_for_a_single_threaded_blas(self):
        assert eigencore._workers(4, None) == 1
        assert eigencore._workers(4, 2) == 1  # unmeasured, and slower on 2 CPUs
        assert eigencore._workers(4, 1) == min(4, len(os.sched_getaffinity(0)))
        assert eigencore._workers(1, 1) == 1

    def test_the_real_probe_pools_only_a_single_threaded_blas(self):
        single = run_probe(1)
        if single["threads"] is None or single["cpus"] < 2:
            pytest.skip("no OpenBLAS thread count to read, or a single usable CPU")
        assert single["threads"] == 1
        assert single["workers"] == min(4, single["cpus"])
        assert single["reports"] == [[1, single["workers"]], [1, 1]]
        assert single["same"]
        assert single["split_workers"] == min(32, single["cpus"])  # 2001 columns: 32 panels
        assert single["split_same"]
        # a multi-threaded BLAS keeps the folds and the extension serial; OpenBLAS may cap the
        # count below the CPUs it was asked for, so the test reads what it got
        full = run_probe(single["cpus"])
        if full["threads"] == 1:
            pytest.skip("this OpenBLAS runs a single thread whatever it is asked")
        assert full["threads"] > 1
        assert full["workers"] == 1
        assert full["split_workers"] == 0  # the extension stayed on the calling thread
        assert full["split_same"]


class TestConvergenceProbe:
    def test_rank_three_kernel_exact(self):
        def rank3(a, b):
            return np.cos(a) * np.cos(b) + 0.5 * np.sin(2 * a) * np.sin(2 * b) + 0.25 * a * b

        errors = convergence_probe(rank3, 200, [3, 5, 10], seed=5)
        assert np.all(errors <= 1e-8)

    def test_min_kernel_errors_shrink(self):
        errors = convergence_probe(np.minimum, 200, [5, 20, 80], seed=1)
        assert errors[-1] < errors[0]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_probe(np.minimum, 50, [10, 5])

    def test_deterministic(self):
        e1 = convergence_probe(np.minimum, 100, [5, 10], seed=3)
        e2 = convergence_probe(np.minimum, 100, [5, 10], seed=3)
        assert np.array_equal(e1, e2)


class TestBenchmark:
    def test_records_and_touch_counts(self):
        rng = np.random.default_rng(10)

        def factory(n):
            d = random_squared_dissimilarity(n, rng)
            return d, Kind.SQUARED_DISSIMILARITY

        records = benchmark_scaling(factory, [40, 80], m_fixed=10, mode="flip", seed=0)
        proposed = [r for r in records if r.pipeline == "proposed"]
        standard = [r for r in records if r.pipeline == "standard"]
        assert [r.n for r in proposed] == [40, 80]
        for r in proposed:
            assert r.entries_touched <= 2 * r.n * r.m + 4 * r.m * r.m
        assert all(not r.skipped for r in standard)

    def test_proposed_pipeline_is_one_fit(self, monkeypatch):
        rng = np.random.default_rng(12)
        calls = []
        fit = evaluate.fit_corrected_model

        def counting_fit(*args, **kwargs):
            calls.append(kwargs)
            return fit(*args, **kwargs)

        monkeypatch.setattr(evaluate, "fit_corrected_model", counting_fit)

        def factory(n):
            return random_squared_dissimilarity(n, rng), Kind.SQUARED_DISSIMILARITY

        records = benchmark_scaling(factory, [30, 60], m_fixed=5, mode="clip", seed=4)
        assert calls == [
            {"kind": Kind.SQUARED_DISSIMILARITY, "m": 5, "mode": "clip", "seed": 4}
        ] * 2
        for r in records:
            if r.pipeline == "proposed":
                assert list(r.stage_seconds) == ["fit"]
                assert r.total_seconds == r.stage_seconds["fit"]

    def test_dense_center_stage_is_centering_alone(self, monkeypatch):
        # the timed "center" stage must not re-validate the block as a ProximityMatrix
        d = random_squared_dissimilarity(40, np.random.default_rng(13))

        def no_wrapper(*args, **kwargs):
            raise AssertionError("the dense pipeline wrapped its block in a ProximityMatrix")

        centered = []
        eig = evaluate.sym_eig
        monkeypatch.setattr(evaluate, "ProximityMatrix", no_wrapper)
        monkeypatch.setattr(evaluate, "sym_eig", lambda s: centered.append(s) or eig(s))

        def factory(n):
            return d, Kind.SQUARED_DISSIMILARITY

        records = benchmark_scaling(factory, [40], m_fixed=5)
        assert "center" in records[1].stage_seconds
        assert np.array_equal(centered[0], double_center(d))

    def test_dense_cap_skips(self):
        rng = np.random.default_rng(11)

        def factory(n):
            return random_squared_dissimilarity(n, rng), Kind.SQUARED_DISSIMILARITY

        records = benchmark_scaling(factory, [30, 60], m_fixed=5, dense_cap=40)
        skipped = [r for r in records if r.pipeline == "standard" and r.n == 60]
        assert skipped[0].skipped

    def test_loglog_slope_helper(self):
        ns = [100, 200, 400]
        times = [1.0, 4.0, 16.0]  # exact quadratic
        assert loglog_slope(ns, times) == pytest.approx(2.0)

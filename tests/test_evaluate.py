import numpy as np
import pytest

from proxkern import evaluate
from proxkern import (
    Kind,
    ProximityMatrix,
    RowOracle,
    benchmark_scaling,
    convergence_probe,
    crossvalidate,
    fit_corrected_model,
    fit_ridge_classifier,
    loglog_slope,
    predict_classes,
    proximity_fidelity,
    spearman_rho,
    stratified_folds,
)

from conftest import random_indefinite_dissimilarity, random_squared_dissimilarity


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
        assert report.config["m"] == 8

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

    def test_lmds_needs_dissimilarities(self):
        rng = np.random.default_rng(9)
        sim = ProximityMatrix(Kind.SIMILARITY, np.eye(20))
        with pytest.raises(ValueError, match="dissimilarit"):
            crossvalidate(sim, np.array([0, 1] * 10), m=4, method="lmds")

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

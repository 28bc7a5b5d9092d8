import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from proxkern import (
    CenteringStats,
    Kind,
    NystromFactors,
    RowOracle,
    ball_dataset,
    center_dissimilarity_rows,
    corrected_block,
    crossvalidate,
    extend_dissimilarities,
    extend_features,
    extend_similarities,
    fit_corrected_model,
    fit_corrected_model_from_factors,
    load_model,
    nystrom_factors,
    pinv_sym,
    save_model,
)

from proxkern import eigencore, oos

from conftest import patch_workers, random_indefinite_dissimilarity, random_symmetric

SRC = Path(__file__).resolve().parent.parent / "src"


def similarity_model(n, m, mode, rng, landmarks=None):
    matrix = random_symmetric(n, rng)
    if landmarks is None:
        landmarks = np.arange(m)
    f = nystrom_factors(matrix, landmarks, kind=Kind.SIMILARITY)
    return fit_corrected_model_from_factors(f, mode), matrix


class TestExtendSimilarities:
    def test_landmark_rows_reproduce_corrected_block(self):
        rng = np.random.default_rng(0)
        model, _ = similarity_model(20, 6, "flip", rng)
        queried = extend_similarities(model, model.cross[model.landmarks])
        direct = corrected_block(model, model.landmarks, np.arange(20))
        assert np.abs(queried - direct).max() <= 1e-12 * max(np.abs(direct).max(), 1e-30)

    def test_empty_query(self):
        rng = np.random.default_rng(1)
        model, _ = similarity_model(15, 5, "clip", rng)
        out = extend_similarities(model, np.zeros((0, 5)))
        assert out.shape == (0, 15)

    def test_holdout_matches_stacked_evaluation(self):
        """Fit on the training rows, then extend to held-out rows; pushing
        the stacked cross block through the same fitted model must give the
        identical values (frozen w_star, no refit)."""
        rng = np.random.default_rng(2)
        matrix = random_symmetric(40, rng)
        landmarks = np.arange(8)  # inside the training prefix
        train, test = np.arange(30), np.arange(30, 40)
        f = nystrom_factors(matrix[np.ix_(train, train)], landmarks, kind=Kind.SIMILARITY)
        model = fit_corrected_model_from_factors(f, "flip")
        extension = extend_similarities(model, matrix[np.ix_(test, landmarks)])
        stacked_rows = matrix[:, landmarks]  # all 40 rows as queries
        stacked = extend_similarities(model, stacked_rows)
        assert np.abs(stacked[test] - extension).max() <= 1e-10

    def test_column_mismatch(self):
        rng = np.random.default_rng(3)
        model, _ = similarity_model(10, 4, "flip", rng)
        with pytest.raises(ValueError, match="width"):
            extend_similarities(model, np.zeros((2, 5)))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        model, _ = similarity_model(18, 6, "flip", rng)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        a, b = 0.3, -1.7
        combined = extend_similarities(model, (a * x + b * y)[None, :])
        parts = a * extend_similarities(model, x[None, :]) + b * extend_similarities(
            model, y[None, :]
        )
        assert np.abs(combined - parts).max() <= 1e-10 * max(np.abs(parts).max(), 1.0)

    def test_training_row_idempotence_brute_force(self):
        rng = np.random.default_rng(6)
        model, _ = similarity_model(60, 10, "clip", rng)
        everything = extend_similarities(model, model.cross)
        direct = corrected_block(model, np.arange(60), np.arange(60))
        assert np.abs(everything - direct).max() <= 1e-10 * np.abs(direct).max()


class TestExtendDissimilarities:
    def test_training_row_reproduces_centered_cross(self):
        rng = np.random.default_rng(7)
        d = random_indefinite_dissimilarity(25, rng)
        landmarks = np.array([0, 5, 10, 15])
        d_cross = d.values[:, landmarks]
        model = fit_corrected_model(d, landmarks=landmarks, mode="flip")
        from proxkern import center_dissimilarity_rows

        row = center_dissimilarity_rows(d_cross[[7]], model.stats)
        assert np.array_equal(row, model.cross[[7]])
        assert np.array_equal(center_dissimilarity_rows(d_cross, model.stats), model.cross)

    def test_zero_row_zero_stats(self):
        stats = CenteringStats(s=np.zeros(3), g=0.0, n=5, core_pinv=np.zeros((3, 3)))
        cross = np.zeros((5, 3))
        model_factors = NystromFactors(
            Kind.SIMILARITY, np.arange(3), cross, np.zeros((3, 3)), np.zeros((3, 3))
        )
        model = fit_corrected_model_from_factors(model_factors, "flip")
        model.stats = stats
        out = extend_dissimilarities(model, np.zeros((1, 3)))
        assert np.array_equal(out, np.zeros((1, 5)))

    @pytest.mark.parametrize("loaded", [False, True])
    def test_rows_keep_the_bits_of_the_explicit_row_sum_map(self, tmp_path, loaded):
        # every extension centers a row as d - s / N, one subtraction per entry, and
        # must give the bits of that expression written out
        d = random_indefinite_dissimilarity(40, np.random.default_rng(11))
        model = fit_corrected_model(d, m=9, mode="flip", seed=2)
        if loaded:
            save_model(model, tmp_path / "model.pcm")
            model = load_model(tmp_path / "model.pcm")
        queries = d.values[3:11][:, model.landmarks]
        st = model.stats
        centered = queries - st.s[None, :] / st.n
        want = (centered @ model.w_star) @ model.cross.T
        assert np.array_equal(extend_dissimilarities(model, queries), want)
        assert np.array_equal(extend_features(model, queries), centered @ model.r)

    def test_requires_stats(self):
        rng = np.random.default_rng(8)
        model, _ = similarity_model(12, 4, "flip", rng)
        with pytest.raises(ValueError, match="statistics"):
            extend_dissimilarities(model, np.zeros((1, 4)))

    def test_ball_holdout_consistency(self, ball600):
        """Fit a flip model on 500 training balls, extend to 100 held-out
        ones, and compare with evaluating the same fitted model on the
        stacked 600-row query block."""
        matrix, _ = ball600
        values = matrix.values
        rng = np.random.default_rng(9)
        perm = rng.permutation(600)
        train, test = np.sort(perm[:500]), np.sort(perm[500:])
        landmarks_local = np.sort(rng.choice(500, size=25, replace=False))
        sub = values[np.ix_(train, train)]
        from proxkern import ProximityMatrix

        d_train = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, sub)
        model = fit_corrected_model(d_train, landmarks=landmarks_local, mode="flip")
        landmarks_global = train[landmarks_local]
        extension = extend_dissimilarities(model, values[np.ix_(test, landmarks_global)])
        stacked = extend_dissimilarities(model, values[:, landmarks_global])
        assert np.abs(stacked[test] - extension).max() <= 1e-9

    def test_extend_features_consistent_with_extension(self):
        rng = np.random.default_rng(10)
        d = random_indefinite_dissimilarity(30, rng)
        model = fit_corrected_model(d, m=8, mode="flip", seed=1)
        queries = d.values[5:9][:, model.landmarks]
        f_new = extend_features(model, queries)
        f_train = extend_features(model, d.values[:, model.landmarks])
        via_features = f_new @ f_train.T
        direct = extend_dissimilarities(model, queries)
        assert np.abs(via_features - direct).max() <= 1e-8 * max(np.abs(direct).max(), 1.0)


@pytest.fixture(scope="module")
def wide_model():
    """A dissimilarity model and 64 query rows: N is no multiple of 64, and even a
    one-row extension does ``oos.SPLIT_WORK`` multiply-adds or more."""
    m = 200
    n = -(-oos.SPLIT_WORK // m)
    n += n % oos.SPLIT_COLUMNS == 0
    x = np.random.default_rng(12).standard_normal((n + 64, 3))
    oracle = RowOracle(lambda i: ((x[:n] - x[i]) ** 2).sum(axis=1), n)
    model = fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=m, seed=0)
    d_new = ((x[n:, None, :] - x[None, model.landmarks, :]) ** 2).sum(axis=-1)
    return model, d_new


def serial_extension(model, d_new):
    return (center_dissimilarity_rows(d_new, model.stats) @ model.w_star) @ model.cross.T


def record_splits(monkeypatch) -> list:
    """The worker count of every split the extension makes from now on."""
    run_in_order, splits = eigencore._run_in_order, []

    def recording_run(task, items, workers):
        splits.append(workers)
        return run_in_order(task, items, workers)

    monkeypatch.setattr(eigencore, "_run_in_order", recording_run)
    return splits


# Extends the saved queries on the kept helper thread with 2 task workers, so the split's own
# helper task queues behind the extension on the pool's single thread, and checks the block
# against the serial product bit for bit.
HELPER_SCRIPT = """
import os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from proxkern import center_dissimilarity_rows, eigencore, extend_dissimilarities, load_model
model, d_new = load_model(sys.argv[2]), np.load(sys.argv[3])
serial = (center_dissimilarity_rows(d_new, model.stats) @ model.w_star) @ model.cross.T
eigencore._workers = lambda tasks, blas_threads: 2
helper = eigencore._helper_pool(1, os.getpid())
got = helper.submit(extend_dissimilarities, model, d_new).result()
assert got.tobytes() == serial.tobytes()
"""


class TestSplitExtension:
    @pytest.mark.parametrize("t", [1, 64])
    def test_a_split_extension_equals_the_serial_product(self, wide_model, monkeypatch, t):
        model, d_new = wide_model
        d_new = d_new[:t]
        serial = serial_extension(model, d_new)
        splits = record_splits(monkeypatch)
        patch_workers(monkeypatch, 2)
        s_new = center_dissimilarity_rows(d_new, model.stats)
        for got in (extend_similarities(model, s_new), extend_dissimilarities(model, d_new)):
            assert got.tobytes() == serial.tobytes()
        assert splits == [2, 2]

    def test_below_the_floor_no_helper_thread_runs(self, monkeypatch):
        model, _ = similarity_model(600, 20, "flip", np.random.default_rng(13))
        queries = model.cross[:64]
        assert 64 * model.m * model.n < oos.SPLIT_WORK
        serial = (queries @ model.w_star) @ model.cross.T
        splits = record_splits(monkeypatch)
        patch_workers(monkeypatch, 2)

        def no_probe():
            pytest.fail("an extension below the floor read the BLAS thread count")

        monkeypatch.setattr(eigencore, "_blas_threads", no_probe)
        assert extend_similarities(model, queries).tobytes() == serial.tobytes()
        assert splits == []

    def test_an_extension_on_a_kept_helper_thread_returns(self, wide_model, tmp_path):
        # in a child process, so a helper stuck behind its own task fails this test at the
        # timeout rather than keeping the interpreter from exiting
        model, d_new = wide_model
        paths = [tmp_path / "model.pcm", tmp_path / "queries.npy"]
        save_model(model, paths[0])
        np.save(paths[1], d_new)
        done = subprocess.run(
            [sys.executable, "-c", HELPER_SCRIPT, str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_concurrent_calls_give_serial_bits(self, wide_model, monkeypatch):
        model, d_new = wide_model
        matrix, labels = ball_dataset(30, seed=4)
        kwargs = dict(m=12, folds=4, repeats=2, seed=3)
        serial = {"cv": crossvalidate(matrix, labels, **kwargs).accuracies,
                  "extend": serial_extension(model, d_new)}
        patch_workers(monkeypatch, 3)  # more threads than this host's CPUs, so none is pinned
        calls = {"cv": lambda: crossvalidate(matrix, labels, **kwargs).accuracies,
                 "extend": lambda: extend_dissimilarities(model, d_new)}
        start, results = threading.Barrier(len(calls)), {}

        def run(name):
            start.wait(timeout=60)
            results[name] = [calls[name]() for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a shared write would show
        try:
            threads = [threading.Thread(target=run, args=(name,)) for name in calls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name, runs in results.items():
            assert all(run.tobytes() == serial[name].tobytes() for run in runs)
        assert results.keys() == calls.keys()

import numpy as np
import pytest

from proxkern import (
    CenteringStats,
    Kind,
    NystromFactors,
    corrected_block,
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

from conftest import random_indefinite_dissimilarity, random_symmetric


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

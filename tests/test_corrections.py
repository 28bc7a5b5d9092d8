import numpy as np
import pytest

from proxkern import (
    Kind,
    build_corrected_model,
    correct_eigenvalues,
    corrected_block,
    double_center,
    fit_corrected_model,
    fit_corrected_model_from_factors,
    load_model,
    nystrom_eig_indefinite,
    nystrom_factors,
    reconstruct_block,
    save_model,
    sym_eig,
)

from conftest import random_indefinite_dissimilarity, random_squared_dissimilarity, random_symmetric


class TestCorrectEigenvalues:
    def test_flip(self):
        assert correct_eigenvalues(np.array([3.0, -2.0, 0.0]), "flip").tolist() == [3.0, 2.0, 0.0]

    def test_clip(self):
        assert correct_eigenvalues(np.array([3.0, -2.0, 0.0]), "clip").tolist() == [3.0, 0.0, 0.0]

    def test_shift(self):
        assert correct_eigenvalues(np.array([3.0, -2.0, 0.0]), "shift").tolist() == [5.0, 0.0, 2.0]

    def test_shift_leaves_psd_spectrum(self):
        values = np.array([3.0, 1.0, 0.0])
        assert correct_eigenvalues(values, "shift").tolist() == values.tolist()

    def test_none_identity(self):
        values = np.array([1.5, -0.5])
        assert correct_eigenvalues(values, "none").tolist() == values.tolist()

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            correct_eigenvalues(np.array([1.0]), "negate")


def model_for(values, landmarks, mode):
    f = nystrom_factors(np.asarray(values, dtype=float), landmarks, kind=Kind.SIMILARITY)
    eig = nystrom_eig_indefinite(f)
    return build_corrected_model(eig, landmarks, mode), f


class TestBuildCorrectedModel:
    def test_mode_none_reproduces_approximation(self):
        rng = np.random.default_rng(0)
        m = random_symmetric(15, rng)
        lm = np.arange(6)
        model, f = model_for(m, lm, "none")
        khat = reconstruct_block(f, np.arange(15), np.arange(15))
        got = corrected_block(model, np.arange(15), np.arange(15))
        assert np.abs(got - khat).max() <= 1e-8 * np.abs(khat).max()

    def test_clip_on_psd_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((14, 5))
        k = x @ x.T
        lm = np.arange(6)
        model, f = model_for(k, lm, "clip")
        khat = reconstruct_block(f, np.arange(14), np.arange(14))
        got = corrected_block(model, np.arange(14), np.arange(14))
        assert np.abs(got - khat).max() <= 1e-8 * np.abs(khat).max()

    def test_flip_rank_two_analytic(self):
        rng = np.random.default_rng(2)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 2)))
        u = basis[:, 0] * 1.7
        w = basis[:, 1] * 0.9
        m = np.outer(u, u) - np.outer(w, w)
        model, _ = model_for(m, np.arange(4), "flip")
        expected = np.outer(u, u) + np.outer(w, w)
        got = corrected_block(model, np.arange(12), np.arange(12))
        assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()

    def test_feature_factor_absent_for_uncorrected_indefinite(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(12, rng)
        model, _ = model_for(m, np.arange(5), "none")
        assert model.r is None

    def test_feature_factor_present_for_flip_clip_shift(self):
        rng = np.random.default_rng(4)
        m = random_symmetric(12, rng)
        for mode in ("flip", "clip", "shift"):
            model, _ = model_for(m, np.arange(5), mode)
            assert model.r is not None
            assert np.abs(model.r @ model.r.T - model.w_star).max() <= 1e-8 * max(
                np.abs(model.w_star).max(), 1e-30
            )


class TestCorrectedBlock:
    def test_against_dense_eigencorrection(self):
        """Dense oracle: correct the spectrum of the reconstructed matrix
        directly and compare with the landmark-side evaluation."""
        rng = np.random.default_rng(5)
        for mode in ("flip", "clip"):
            m = random_symmetric(18, rng)
            lm = np.arange(7)
            model, f = model_for(m, lm, mode)
            khat = reconstruct_block(f, np.arange(18), np.arange(18))
            vectors, values = sym_eig(khat)
            dense = (vectors * correct_eigenvalues(values, mode)) @ vectors.T
            got = corrected_block(model, np.arange(18), np.arange(18))
            assert np.abs(got - dense).max() <= 1e-6 * np.abs(dense).max()

    def test_psd_diagonal(self):
        rng = np.random.default_rng(6)
        m = random_symmetric(16, rng)
        for mode in ("flip", "clip"):
            model, _ = model_for(m, np.arange(6), mode)
            block = corrected_block(model, np.arange(16), np.arange(16))
            assert np.diag(block).min() >= -1e-8 * np.abs(block).max()

    def test_none_psd_full_landmarks_equals_source(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 4))
        k = x @ x.T
        model, _ = model_for(k, np.arange(10), "none")
        got = corrected_block(model, np.arange(10), np.arange(10))
        assert np.abs(got - k).max() <= 1e-8 * np.abs(k).max()

    def test_psd_guarantee_dense_check(self):
        rng = np.random.default_rng(8)
        for mode in ("flip", "clip"):
            m = random_symmetric(60, rng)
            model, _ = model_for(m, np.arange(12), mode)
            full = corrected_block(model, np.arange(60), np.arange(60))
            _, values = sym_eig(full)
            assert values.min() >= -1e-8 * values.max()

    def test_feature_map_identity(self):
        rng = np.random.default_rng(9)
        m = random_symmetric(20, rng)
        model, _ = model_for(m, np.arange(8), "flip")
        features = model.cross @ model.r
        gram = features @ features.T
        block = corrected_block(model, np.arange(20), np.arange(20))
        assert np.abs(gram - block).max() <= 1e-8 * np.abs(block).max()

    def test_full_rank_equivalence_with_dense_pipeline(self):
        """At m = N the landmark pipeline must agree with correcting the
        dense matrix spectrum directly."""
        rng = np.random.default_rng(10)
        m = random_symmetric(25, rng)
        vectors, values = sym_eig(m)
        for mode in ("flip", "clip"):
            dense = (vectors * correct_eigenvalues(values, mode)) @ vectors.T
            model, _ = model_for(m, np.arange(25), mode)
            got = corrected_block(model, np.arange(25), np.arange(25))
            assert np.abs(got - dense).max() <= 1e-6 * np.abs(dense).max()


class TestFitPipeline:
    def test_dissimilarity_model_carries_stats(self):
        rng = np.random.default_rng(13)
        d = random_indefinite_dissimilarity(20, rng)
        model = fit_corrected_model(d, m=8, mode="flip", seed=0)
        assert model.stats is not None
        assert model.stats.n == 20

    def test_similarity_model_has_no_stats(self):
        rng = np.random.default_rng(14)
        m = random_symmetric(20, rng)
        model = fit_corrected_model(m, kind=Kind.SIMILARITY, m=8, mode="flip", seed=0)
        assert model.stats is None

    def test_factors_fit_equals_explicit_pipeline(self):
        rng = np.random.default_rng(15)
        d = random_squared_dissimilarity(16, rng)
        lm = np.array([1, 5, 9, 13])
        f = nystrom_factors(d, lm)
        model_a = fit_corrected_model_from_factors(f, "flip")
        model_b = fit_corrected_model(d, landmarks=lm, mode="flip")
        assert np.allclose(model_a.w_star, model_b.w_star)
        assert np.allclose(model_a.cross, model_b.cross)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        d = random_indefinite_dissimilarity(15, rng)
        model = fit_corrected_model(d, m=6, mode="flip", seed=1)
        path = tmp_path / "model.pcm"
        save_model(model, path)
        back = load_model(path)
        assert back.mode == "flip"
        assert np.array_equal(back.landmarks, model.landmarks)
        assert np.array_equal(back.cross, model.cross)
        assert np.array_equal(back.w_star, model.w_star)
        assert np.array_equal(back.r, model.r)
        assert back.stats.n == model.stats.n
        assert back.stats.g == model.stats.g
        assert np.array_equal(back.stats.s, model.stats.s)
        assert np.array_equal(back.stats.core_pinv, model.stats.core_pinv)
        assert back.ill_conditioned == model.ill_conditioned

    def test_round_trip_without_stats(self, tmp_path):
        rng = np.random.default_rng(17)
        m = random_symmetric(10, rng)
        model = fit_corrected_model(m, kind=Kind.SIMILARITY, m=4, mode="none", seed=2)
        path = tmp_path / "model.pcm"
        save_model(model, path)
        back = load_model(path)
        assert back.stats is None
        assert back.r is None
        assert np.array_equal(back.w_star, model.w_star)

    def test_corrupt_files_raise_data_error(self, tmp_path):
        from proxkern import DataError

        rng = np.random.default_rng(18)
        model = fit_corrected_model(random_indefinite_dissimilarity(12, rng), m=4, mode="flip")
        path = tmp_path / "model.pcm"
        save_model(model, path)
        raw = path.read_bytes()
        bad = [raw[:cut] for cut in range(len(raw))] + [raw + b"\0"]
        header = 30  # magic, flags, mode and three u64 sizes
        for landmark in (10**6, int(model.landmarks[1])):  # out of range, repeated
            corrupt = bytearray(raw)
            corrupt[header : header + 8] = landmark.to_bytes(8, "little")
            bad.append(bytes(corrupt))
        for blob in bad:
            path.write_bytes(blob)
            with pytest.raises(DataError):
                load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pcm"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
        from proxkern import DataError

        with pytest.raises(DataError, match="magic"):
            load_model(path)

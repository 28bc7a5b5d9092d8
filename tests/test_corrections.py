import tracemalloc

import numpy as np
import pytest

from proxkern import eigencore, evaluate, nystrom
from proxkern import (
    CenteringStats,
    Kind,
    NystromFactors,
    ProximityMatrix,
    RowOracle,
    as_row_oracle,
    ball_dataset,
    build_corrected_model,
    correct_eigenvalues,
    corrected_block,
    double_center,
    fit_corrected_model,
    fit_corrected_model_from_factors,
    load_model,
    nystrom_eig_indefinite,
    nystrom_factors,
    pinv_sym,
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

    def test_unknown_mode_fails_before_any_fetch(self):
        oracle = as_row_oracle(random_symmetric(20, np.random.default_rng(16)))
        with pytest.raises(ValueError, match="mode"):
            fit_corrected_model(oracle, m=5, mode="bogus")
        assert oracle.entries_touched == 0

    def test_m_equals_n_fit_matches_the_dense_spectrum(self, ball600):
        """With every row a landmark, the mode-none model is the double centered
        matrix itself: its eigenvalues match a dense eigvalsh to 1e-10 of max|lambda|."""
        matrix, _ = ball600
        everything = np.arange(matrix.n)
        model = fit_corrected_model(matrix, landmarks=everything, mode="none")
        got = np.linalg.eigvalsh(corrected_block(model, everything, everything))
        want = np.linalg.eigvalsh(double_center(matrix))
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale, np.abs(got - want).max() / scale

    def test_dissimilarity_fit_decomposes_the_core_once(self, monkeypatch):
        """A fit runs two eigendecompositions, of the raw core and of H, and a
        cross-validation one per repeat plus one per fold: no core is inverted twice."""
        shapes = []
        original = eigencore.sym_eig

        def counted(a):
            shapes.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(eigencore, "sym_eig", counted)
        monkeypatch.setattr(nystrom, "sym_eig", counted)
        d = random_indefinite_dissimilarity(40, np.random.default_rng(27))
        fit_corrected_model(d, m=9, mode="flip", seed=2)
        assert shapes == [(9, 9), (9, 9)]
        shapes.clear()
        matrix, labels = ball_dataset(15, seed=4)
        evaluate.crossvalidate(matrix, labels, m=8, mode="flip", folds=3, repeats=2, seed=7)
        assert len(shapes) == 2 * (1 + 3)

    def test_unknown_mode_leaves_the_factors_unwritten(self):
        d = random_squared_dissimilarity(16, np.random.default_rng(17))
        factors = nystrom_factors(d, np.array([1, 5, 9, 13]))
        cross = factors.cross.copy()
        with pytest.raises(ValueError, match="mode"):
            fit_corrected_model_from_factors(factors, "bogus")
        assert np.array_equal(factors.cross, cross)


def reference_factors(source, landmarks):
    """The landmark blocks assembled landmark-major: stacked m x N rows, seen through ``rows.T``."""
    kind = source.kind if isinstance(source, ProximityMatrix) else Kind.SQUARED_DISSIMILARITY
    oracle = as_row_oracle(source)
    rows = np.stack([oracle.row(i) for i in landmarks])
    cross = rows.T
    core = cross[landmarks]
    core = (core + core.T) / 2.0
    return NystromFactors(kind, landmarks, cross, core, pinv_sym(core))


def reference_fit_from_factors(factors, mode):
    """The fit stages with the centered block and the scaled pinv as new arrays.

    A squared dissimilarity block C is centered into a new ``E = C - 1 s^T / N``
    and its double centered approximation ``E (-0.5 pinv(W)) E^T`` is handed
    to the eigendecomposition with ``-0.5 pinv(W)`` written out.  Scaling by
    -0.5 is exact, so the fit, which scales H instead, must give the same bits.
    """
    stats = None
    if factors.kind is Kind.SQUARED_DISSIMILARITY:
        n = factors.cross.shape[0]
        s = factors.cross.sum(axis=0)
        g = float(s @ factors.core_pinv @ s)
        stats = CenteringStats(s=s, g=g, n=n, core_pinv=factors.core_pinv)
        cross = factors.cross - s[None, :] / n
        factors = NystromFactors(
            Kind.SIMILARITY, factors.landmarks, cross, None, -0.5 * factors.core_pinv
        )
    eig = nystrom_eig_indefinite(factors)
    return build_corrected_model(eig, factors.landmarks, mode, stats=stats)


def assert_same_model(got, want):
    assert np.array_equal(got.landmarks, want.landmarks)
    assert np.array_equal(got.cross, want.cross)
    assert np.array_equal(got.w_star, want.w_star)
    assert (got.r is None) == (want.r is None)
    if want.r is not None:
        assert np.array_equal(got.r, want.r)
    assert got.ill_conditioned == want.ill_conditioned
    assert (got.stats is None) == (want.stats is None)
    if want.stats is not None:
        assert np.array_equal(got.stats.s, want.stats.s)
        assert got.stats.g == want.stats.g
        assert got.stats.n == want.stats.n
        assert np.array_equal(got.stats.core_pinv, want.stats.core_pinv)


def dissimilarity_sources(matrix):
    """The same squared dissimilarities as a matrix, an array and a computing row oracle."""
    values = matrix.values
    return {
        "matrix": matrix,
        "array": values,
        "oracle": RowOracle(lambda i: values[i] * 1.0, matrix.n),
    }


class TestFitAssembly:
    """The fit gathers landmark rows into one block and centers that block where it lies."""

    @pytest.mark.parametrize("mode", ["flip", "clip", "shift", "none"])
    @pytest.mark.parametrize("source", ["matrix", "array", "oracle"])
    def test_bit_identical_to_stacked_assembly(self, mode, source):
        matrix = random_indefinite_dissimilarity(60, np.random.default_rng(21))
        landmarks = np.array([3, 11, 17, 29, 30, 44, 58])
        sources = dissimilarity_sources(matrix)
        kind = Kind.SQUARED_DISSIMILARITY
        got = fit_corrected_model(sources[source], kind=kind, landmarks=landmarks, mode=mode)
        want = reference_fit_from_factors(reference_factors(sources[source], landmarks), mode)
        assert_same_model(got, want)

    def test_crossvalidate_accuracies_identical_to_stacked_assembly(self, monkeypatch):
        matrix, labels = ball_dataset(30, seed=4)
        args = dict(m=12, mode="flip", folds=3, repeats=2, seed=7)
        got = evaluate.crossvalidate(matrix, labels, **args).accuracies
        monkeypatch.setattr(evaluate, "fit_corrected_model_from_factors", reference_fit_from_factors)
        want = evaluate.crossvalidate(matrix, labels, **args).accuracies
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("source", ["matrix", "array"])
    def test_fit_leaves_caller_values_unchanged(self, source):
        matrix = random_indefinite_dissimilarity(30, np.random.default_rng(22))
        before = matrix.values.copy()
        src = dissimilarity_sources(matrix)[source]
        fit_corrected_model(src, kind=Kind.SQUARED_DISSIMILARITY, m=6, mode="flip", seed=3)
        assert np.array_equal(matrix.values, before)

    def test_overwrite_centers_the_cross_block_where_it_lies(self):
        matrix = random_indefinite_dissimilarity(30, np.random.default_rng(24))
        landmarks = np.array([1, 7, 12, 20, 26])
        want = fit_corrected_model_from_factors(nystrom_factors(matrix, landmarks), "flip")
        factors = nystrom_factors(matrix, landmarks)
        core, core_pinv = factors.core.copy(), factors.core_pinv.copy()
        got = fit_corrected_model_from_factors(factors, "flip")
        assert got.cross is factors.cross
        assert_same_model(got, want)
        assert np.array_equal(factors.core, core)
        assert np.array_equal(factors.core_pinv, core_pinv)

    def test_fit_peak_memory_is_one_cross_block(self):
        n, m = 40_000, 20
        x = np.random.default_rng(25).uniform(0.0, 1.0, n)
        oracle = RowOracle(lambda i: np.abs(x - x[i]), n)
        # one N x m block with half a block to spare, plus a few rows of oracle temporaries;
        # stacked rows beside their transposed copy, or a centered copy beside the raw
        # block, would need two blocks
        budget = 1.5 * 8 * n * m + 4 * 8 * n
        tracemalloc.start()
        try:
            fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=m, mode="flip", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"fit peaked at {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"

    def test_wide_fit_peak_memory_has_no_second_block(self):
        m = 300
        n = 16 * m
        x = np.random.default_rng(26).uniform(0.0, 1.0, (n, 3))
        oracle = RowOracle(lambda i: ((x - x[i]) ** 2).sum(axis=1), n)
        # the block, one QR leaf and the stack of leaf Rs (a quarter block each at
        # N = 16 m) and the fit's m x m arrays fit in two blocks; a one-piece QR of
        # the block copies all of it
        budget = 2 * 8 * n * m
        tracemalloc.start()
        try:
            fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=m, mode="flip", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"fit peaked at {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"

    def test_wide_fit_qr_holds_half_a_leaf_of_stacked_rs(self):
        m = 300
        n = 16 * m
        x = np.random.default_rng(26).uniform(0.0, 1.0, (n, 3))
        oracle = RowOracle(lambda i: ((x - x[i]) ** 2).sum(axis=1), n)
        # at N = 16 m the leaves have h = 4 m rows: the QR holds the block, one leaf
        # copy and a stack of 2 leaf Rs, half a leaf, beside the fit's m x m arrays;
        # one more m x m array and 1 MB cover the lazily imported modules of a first
        # fit and the m-vectors.  A stack with room for all 4 leaf Rs exceeds it
        leaf = 8 * 4 * m * m
        budget = 8 * n * m + 1.5 * leaf + 3 * 8 * m * m + 1e6
        tracemalloc.start()
        try:
            fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=m, mode="flip", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"fit peaked at {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"

    def test_wide_fit_qr_holds_one_core_pinv(self):
        m = 300
        n = 16 * m
        x = np.random.default_rng(26).uniform(0.0, 1.0, (n, 3))
        oracle = RowOracle(lambda i: ((x - x[i]) ** 2).sum(axis=1), n)
        # a small fit first, so the peak holds no lazily imported module
        fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=4, mode="flip", seed=1)
        # the QR's peak: the block, a leaf copy and half a leaf of stacked Rs, beside
        # the raw core's pinv, the one m x m array a dissimilarity fit keeps, and half
        # an m x m array for the m-vectors.  The raw core held through the QR, or the
        # pinv of a second, centered core, exceeds it
        leaf = 8 * 4 * m * m
        budget = 8 * n * m + 1.5 * leaf + 1.5 * 8 * m * m
        tracemalloc.start()
        try:
            fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=m, mode="flip", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"fit peaked at {peak / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"


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

    def test_save_and_load_copy_no_cross_block(self, tmp_path):
        n, m = 200_000, 20
        x = np.random.default_rng(19).uniform(0.0, 1.0, n)
        oracle = RowOracle(lambda i: np.abs(x - x[i]), n)
        model = fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=m, mode="flip")
        assert model.cross.T.flags.c_contiguous  # the fit holds the block landmark-major
        block = 8 * n * m
        path = tmp_path / "model.pcm"
        tracemalloc.start()
        try:
            save_model(model, path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_model(path)
            loaded = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a transposing copy at save time, or a second block at load time, needs a block
        assert saved < block / 10, f"save allocated {saved / 1e6:.1f} MB"
        assert loaded < 1.1 * block, f"load peaked at {loaded / 1e6:.1f} MB"
        assert back.cross.T.flags.c_contiguous
        assert np.array_equal(back.cross, model.cross)

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

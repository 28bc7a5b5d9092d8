import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from proxkern import (
    CenteringStats,
    DataError,
    Kind,
    NystromFactors,
    ProximityMatrix,
    RowOracle,
    as_row_oracle,
    ball_centers,
    ball_surface_row,
    center_dissimilarity_rows,
    double_center,
    nystrom_double_center,
    nystrom_eig_indefinite,
    nystrom_eig_psd,
    nystrom_factors,
    pinv_sym,
    reconstruct_block,
    select_landmarks,
    signature_of,
    sym_eig,
)

from proxkern import nystrom
from proxkern.nystrom import _cross_svd

from conftest import patch_workers, random_squared_dissimilarity, random_symmetric, record_splits

SRC = Path(__file__).resolve().parent.parent / "src"


def sim_factors_from(values, landmarks):
    return nystrom_factors(np.asarray(values, dtype=float), np.asarray(landmarks), kind=Kind.SIMILARITY)


class TestSelectLandmarks:
    def test_full_draw_is_permutation(self):
        lm = select_landmarks(5, 5, seed=0)
        assert sorted(lm.tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        assert np.array_equal(select_landmarks(100, 10, seed=42), select_landmarks(100, 10, seed=42))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            select_landmarks(5, 6)

    def test_uniform_frequencies(self):
        # frequency of each index over 1000 draws of 10-from-1000 stays
        # within four binomial standard deviations of the expectation
        counts = np.zeros(1000)
        for seed in range(1000):
            counts[select_landmarks(1000, 10, seed)] += 1
        sigma = np.sqrt(1000 * 0.01 * 0.99)
        assert np.abs(counts - 10.0).max() <= 4 * sigma


class TestFactors:
    def test_all_landmarks_reconstruct_exactly(self):
        rng = np.random.default_rng(0)
        m = random_symmetric(12, rng)
        f = sim_factors_from(m, np.arange(12))
        full = reconstruct_block(f, np.arange(12), np.arange(12))
        assert np.abs(full - m).max() <= 1e-9 * np.abs(m).max()

    def test_rank_one_single_landmark(self):
        x = np.array([1.0, 2.0, 3.0])
        k = np.outer(x, x)
        f = sim_factors_from(k, [0])
        full = reconstruct_block(f, np.arange(3), np.arange(3))
        assert np.allclose(full, k, atol=1e-12)

    def test_rank_exact_indefinite(self):
        rng = np.random.default_rng(1)
        m = random_symmetric(20, rng, rank=5)
        f = sim_factors_from(m, np.arange(5))  # generic spanning landmarks
        full = reconstruct_block(f, np.arange(20), np.arange(20))
        assert np.linalg.norm(full - m) <= 1e-8 * np.linalg.norm(m)

    def test_rank_exactness_brute_force(self):
        """Reconstruction is exact whenever the landmark block carries the full rank."""
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(8, 60))
            r = int(rng.integers(1, 8))
            m_count = int(rng.integers(r, min(n, 20) + 1))
            matrix = random_symmetric(n, rng, rank=r)
            landmarks = rng.choice(n, size=m_count, replace=False)
            f = sim_factors_from(matrix, landmarks)
            if np.linalg.matrix_rank(f.core, tol=1e-8) < r:
                continue  # degenerate draw, exactness not guaranteed
            full = reconstruct_block(f, np.arange(n), np.arange(n))
            assert np.linalg.norm(full - matrix) <= 1e-8 * np.linalg.norm(matrix)

    def test_landmark_rows_match_core(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(15, rng)
        lm = np.array([2, 7, 11])
        f = sim_factors_from(m, lm)
        assert np.array_equal(f.cross[lm], f.core)

    def test_the_core_keeps_the_bits_of_the_two_temporary_mean(self):
        values = np.random.default_rng(9).standard_normal((12, 12))  # asymmetric, so averaged
        lm = np.array([1, 4, 6, 10])
        f = nystrom_factors(RowOracle(lambda i: values[i], 12), lm, kind=Kind.SIMILARITY)
        block = f.cross[lm]
        assert f.core.tobytes() == ((block + block.T) / 2.0).tobytes()
        assert np.array_equal(f.core, f.core.T)

    def test_row_oracle_touches_linear_entries(self):
        rng = np.random.default_rng(4)
        m = random_symmetric(50, rng)
        oracle = as_row_oracle(m)
        nystrom_factors(oracle, np.arange(10), kind=Kind.SIMILARITY)
        assert oracle.entries_touched == 10 * 50

    def test_non_finite_row_raises_when_fetched(self):
        values = random_symmetric(12, np.random.default_rng(6))
        values[6, 3] = np.nan
        fetched = []

        def row(i):
            fetched.append(i)
            return values[i]

        with pytest.raises(DataError, match=r"non-finite entry at \(6, 3\)"):
            nystrom_factors(RowOracle(row, 12), np.array([1, 4, 6, 8, 9]), kind=Kind.SIMILARITY)
        assert fetched == [1, 4, 6]

    def test_bad_landmarks_fail_before_any_fetch(self):
        oracle = as_row_oracle(random_symmetric(12, np.random.default_rng(7)))
        for landmarks in ([], [3, 12], [-1, 2], [4, 4]):
            with pytest.raises(ValueError, match="landmark"):
                nystrom_factors(oracle, np.array(landmarks, dtype=np.int64))
        assert oracle.entries_touched == 0

    def test_wrong_row_shape_rejected(self):
        oracle = RowOracle(lambda i: np.zeros(11), 12)
        with pytest.raises(ValueError, match="shape"):
            nystrom_factors(oracle, np.array([2, 5]))

    def test_blocks_are_new_arrays(self):
        values = random_symmetric(12, np.random.default_rng(8))
        f = sim_factors_from(values, [0, 5, 9])
        assert not np.shares_memory(f.cross, values)
        assert not np.shares_memory(f.core, values)
        assert f.cross.T.flags.c_contiguous

    def test_landmark_block_psd_diagonal(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 6))
        k = x @ x.T
        f = sim_factors_from(k, np.arange(8))
        for i in range(20):
            block = reconstruct_block(f, [i], [i])
            assert block[0, 0] >= -1e-9

    def test_full_rank_core_landmark_block(self):
        rng = np.random.default_rng(6)
        m = random_symmetric(10, rng)
        lm = np.array([1, 4, 8])
        f = sim_factors_from(m, lm)
        block = reconstruct_block(f, lm, lm)
        assert np.abs(block - f.core).max() <= 1e-9 * np.abs(f.core).max()


class TestEigPsd:
    def test_rank_one(self):
        x = np.array([1.0, 2.0, 3.0])
        f = sim_factors_from(np.outer(x, x), [0])
        model = nystrom_eig_psd(f)
        assert len(model.values) == 1
        assert model.values[0] == pytest.approx(14.0)
        assert np.allclose(np.abs(model.vectors[:, 0]), x / np.sqrt(14.0))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((25, 5))
        k = x @ x.T
        f = sim_factors_from(k, np.arange(6))
        model = nystrom_eig_psd(f)
        khat = reconstruct_block(f, np.arange(25), np.arange(25))
        _, dense_vals = sym_eig(khat)
        assert np.allclose(model.values, dense_vals[: len(model.values)], atol=1e-8 * dense_vals[0])
        recon = (model.vectors * model.values) @ model.vectors.T
        assert np.abs(recon - khat).max() <= 1e-8 * np.linalg.norm(khat, 2)

    def test_zero_matrix_empty_spectrum(self):
        f = sim_factors_from(np.zeros((5, 5)), [0, 2])
        model = nystrom_eig_psd(f)
        assert model.values.size == 0
        assert model.vectors.shape == (5, 0)

    def test_indefinite_core_redirects(self):
        rng = np.random.default_rng(8)
        m = random_symmetric(10, rng)  # indefinite with high probability
        f = sim_factors_from(m, np.arange(4))
        assert sym_eig(f.core)[1].min() < 0
        with pytest.raises(ValueError, match="indefinite"):
            nystrom_eig_psd(f)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 4))
        f = sim_factors_from(x @ x.T, np.arange(5))
        model = nystrom_eig_psd(f)
        k = model.vectors.shape[1]
        assert np.allclose(model.vectors.T @ model.vectors, np.eye(k), atol=1e-8)


class TestEigIndefinite:
    def test_grouped_blocked_qr_matches_one_piece_svd(self):
        # tall: 43 leaves of 20 m rows and a 7-row one, so the stack of 10 Rs is reduced 4 times
        m = 4
        self._check_blocked_qr_matches_one_piece_svd(m, 2 * 20 * 20 * m + 3 * 20 * m + 7)

    @pytest.mark.parametrize(
        "m, n",
        [
            # wide: N = 16 m takes 4 leaves of sqrt(N m) = 4 m rows into a stack of 2 Rs
            (200, 16 * 200),
            # leaves of ceil(sqrt(833 * 50)) = 205 rows: four, then a 13-row one with a 13-row R
            (50, 833),
            # 20 leaves of ceil(sqrt(36120 * 100)) = 1901 rows, the 20th of them one row
            (100, 36120),
            # a 40th and last leaf of one row, leaving rows of an earlier leaf's R
            # in the stack below it
            (4, 3121),
        ],
    )
    def test_sqrt_capped_leaves_match_one_piece_svd(self, m, n):
        self._check_blocked_qr_matches_one_piece_svd(m, n)

    @staticmethod
    def _check_blocked_qr_matches_one_piece_svd(m, n):
        rng = np.random.default_rng(30)
        cross = (rng.standard_normal((m, n)) * np.logspace(0, -6, m)[:, None]).T
        core = random_symmetric(m, rng)
        f = NystromFactors(Kind.SIMILARITY, np.arange(m), cross, core, pinv_sym(core))
        model = nystrom_eig_indefinite(f)
        want = np.linalg.svd(cross, compute_uv=False)
        assert np.allclose(model.cross_sv, want, rtol=1e-12, atol=0.0)
        vectors = model.vectors
        assert np.allclose(vectors.T @ vectors, np.eye(vectors.shape[1]), atol=1e-10)

    @pytest.mark.parametrize(
        "m, n, slots, reductions",
        [
            # N = 16 m: 4 leaves of sqrt(N m) = 4 m rows into a stack of 2 Rs, reduced
            # before the 3rd and 4th leaves
            (50, 16 * 50, 2, 2),
            # four leaves of 205 rows and a 13-row one, with a stack reduction right
            # before that short last leaf
            (50, 833, 2, 3),
            # tall: 40 leaves of 20 m rows, the 40th of them one row, into a stack of 10 Rs
            (4, 3121, 10, 4),
            # tall: 38 leaves, the stack of 10 Rs reduced right before the 3-row 38th
            (4, 37 * 80 + 3, 10, 4),
        ],
    )
    def test_leaf_rs_reduce_in_a_stack_of_at_most_half_a_leaf(self, m, n, slots, reductions):
        cross = np.asfortranarray(np.random.default_rng(32).standard_normal((n, m)))
        r, got_slots, got_reductions = self._reference_tree_r(cross)
        assert (got_slots, got_reductions) == (slots, reductions)
        _, want_sv, want_zt = np.linalg.svd(r, full_matrices=False)
        sv, z = _cross_svd(cross)
        assert np.array_equal(sv, want_sv)
        assert np.array_equal(z, want_zt.T)

    @staticmethod
    def _reference_tree_r(cross):
        """R of the leaf tree from plain ``np.linalg.qr`` calls and a list of leaf Rs."""
        n, m = cross.shape
        h = min(20 * m, math.ceil(math.sqrt(n * m)))
        slots = max(2, h // (2 * m))
        assert -(-n // h) > slots
        stacked, reductions = [], 0
        for i in range(0, n, h):
            leaf_r = np.linalg.qr(cross[i : i + h], mode="r")
            if sum(map(len, stacked)) + len(leaf_r) > slots * m:
                stacked = [np.linalg.qr(np.vstack(stacked), mode="r")]
                reductions += 1
            stacked.append(leaf_r)
        return np.linalg.qr(np.vstack(stacked), mode="r"), slots, reductions

    @pytest.mark.parametrize("n, m", [(540, 300), (300, 300), (8 * 50 - 1, 50)])
    def test_blocks_below_eight_m_rows_keep_the_one_piece_bits(self, n, m):
        # cross-validation folds and m = N fits are reduced in one piece
        cross = np.asfortranarray(np.random.default_rng(31).standard_normal((n, m)))
        sv, z = _cross_svd(cross)
        _, want_sv, want_zt = np.linalg.svd(np.linalg.qr(cross, mode="r"), full_matrices=False)
        assert np.array_equal(sv, want_sv)
        assert np.array_equal(z, want_zt.T)

    def test_agrees_with_psd_routine(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 4))
        f = sim_factors_from(x @ x.T, np.arange(6))
        psd_vals = nystrom_eig_psd(f).values
        indef_vals = nystrom_eig_indefinite(f).values
        k = min(len(psd_vals), len(indef_vals))
        assert np.allclose(psd_vals[:k], indef_vals[:k], atol=1e-8 * psd_vals[0])

    def test_rank_two_analytic_spectrum(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(15)
        w = rng.standard_normal(15)
        w -= (w @ u) / (u @ u) * u  # orthogonalize
        m = np.outer(u, u) - np.outer(w, w)
        f = sim_factors_from(m, np.arange(4))
        model = nystrom_eig_indefinite(f)
        expected = np.sort([u @ u, -(w @ w)])[::-1]
        got = model.values[np.abs(model.values) > 1e-8 * np.abs(model.values).max()]
        assert np.allclose(np.sort(got)[::-1], expected, atol=1e-8 * max(expected))
        assert model.signature.p == 1 and model.signature.q == 1

    def test_sign_collision_pairs(self):
        """+v/-v eigenvalue pairs collide in the squared spectrum; the
        re-diagonalization must still separate them exactly."""
        rng = np.random.default_rng(12)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 2)))
        u, w = basis[:, 0] * 2.0, basis[:, 1] * 2.0  # equal norms: +4 and -4
        m = np.outer(u, u) - np.outer(w, w)
        f = sim_factors_from(m, np.arange(5))
        model = nystrom_eig_indefinite(f)
        khat = reconstruct_block(f, np.arange(12), np.arange(12))
        recon = (model.vectors * model.values) @ model.vectors.T
        assert np.abs(recon - khat).max() <= 1e-6 * np.linalg.norm(khat, 2)
        kept = model.values[np.abs(model.values) > 1e-6]
        assert np.allclose(np.sort(kept), [-4.0, 4.0], atol=1e-8)

    def test_reconstruction_and_subspace_against_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(10, 80))
            m_count = int(rng.integers(3, min(n, 20) + 1))
            matrix = random_symmetric(n, rng)
            landmarks = rng.choice(n, size=m_count, replace=False)
            f = sim_factors_from(matrix, landmarks)
            model = nystrom_eig_indefinite(f)
            khat = reconstruct_block(f, np.arange(n), np.arange(n))
            dense_vec, dense_vals = sym_eig(khat)
            k = len(model.values)
            scale = np.abs(dense_vals).max()
            # eigenvalues sorted descending on both sides; dense spectrum
            # beyond rank k is numerically zero
            dense_nonzero = dense_vals[np.abs(dense_vals) > 1e-9 * scale]
            paired = np.sort(dense_nonzero)[::-1]
            got = np.sort(model.values[np.abs(model.values) > 1e-9 * scale])[::-1]
            assert len(got) == len(paired)
            assert np.allclose(got, paired, atol=1e-6 * scale)
            # projector distance between the dominant subspaces
            dom = np.abs(dense_vals) > 1e-9 * scale
            p_dense = dense_vec[:, dom] @ dense_vec[:, dom].T
            strong = np.abs(model.values) > 1e-9 * scale
            p_model = model.vectors[:, strong] @ model.vectors[:, strong].T
            assert np.abs(p_dense - p_model).max() <= 1e-5

    def test_row_map_recovers_vectors(self):
        rng = np.random.default_rng(14)
        matrix = random_symmetric(20, rng)
        lm = np.arange(6)
        f = sim_factors_from(matrix, lm)
        model = nystrom_eig_indefinite(f)
        assert np.allclose(f.cross @ model.row_map, model.vectors, atol=1e-9)

    @pytest.mark.parametrize("span", [1e-6, 1e-8])
    def test_spread_spectrum(self, span):
        """A rank-40 alternating-sign spectrum spanning 1e-6 or 1e-8, with
        landmarks whose eigenbasis rows are orthogonal, so the core's
        condition number is exactly 1/span and any error beyond that comes
        from the decomposition.  Squaring the spectrum loses the small end."""
        rng = np.random.default_rng(21)
        blocks = [np.linalg.qr(rng.standard_normal((40, 40)))[0] for _ in range(10)]
        perm = rng.permutation(400)
        basis = np.empty((400, 40))
        basis[perm] = np.vstack(blocks) / np.sqrt(10.0)  # orthonormal columns
        truth = span ** (np.arange(40) / 39) * (-1.0) ** np.arange(40)
        lm = np.sort(perm[:40])
        f = nystrom_factors((basis * truth) @ basis.T, lm, kind=Kind.SIMILARITY)
        model = nystrom_eig_indefinite(f)
        want = np.sort(truth)[::-1]
        assert len(model.values) == 40
        assert (np.abs(model.values - want) / np.abs(want)).max() <= 1e-6
        assert tuple(model.signature) == (20, 20, 0)

    def test_ball_signature_matches_dense(self, ball600):
        matrix, _ = ball600
        s = double_center(matrix)
        n = matrix.n
        f = sim_factors_from(s, np.arange(n))
        model = nystrom_eig_indefinite(f)
        dense_sig = signature_of(sym_eig(s)[1])
        assert model.signature.q > 0
        assert abs(model.signature.q - dense_sig.q) <= 0.02 * dense_sig.q


class TestDoubleCenterBlocks:
    def test_full_landmarks_match_dense(self):
        rng = np.random.default_rng(15)
        d = random_squared_dissimilarity(20, rng)
        s_core, s_cross, stats = nystrom_double_center(d.values, d.values, np.arange(20))
        dense = double_center(d)
        assert np.abs(s_core - dense).max() <= 1e-9 * np.abs(dense).max()
        assert np.abs(s_cross - dense).max() <= 1e-9 * np.abs(dense).max()
        assert stats.n == 20

    def test_zero_matrix(self):
        s_core, s_cross, stats = nystrom_double_center(np.zeros((6, 3)), np.zeros((3, 3)))
        assert np.array_equal(s_core, np.zeros((3, 3)))
        assert np.array_equal(s_cross, np.zeros((6, 3)))
        assert np.array_equal(stats.s, np.zeros(3))
        assert stats.g == 0.0

    def test_rank_limited_exactness(self):
        """Points on a line: the dissimilarity matrix has rank 3, so three
        spanning landmarks reproduce dense double centering exactly."""
        rng = np.random.default_rng(16)
        x = np.sort(rng.uniform(0, 10, size=25))
        d_full = (x[:, None] - x[None, :]) ** 2
        d = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, d_full)
        assert np.linalg.matrix_rank(d_full, tol=1e-9) == 3
        landmarks = np.array([0, 12, 24])
        s_core, s_cross, _ = nystrom_double_center(
            d_full[:, landmarks], d_full[np.ix_(landmarks, landmarks)], None
        )
        approx = s_cross @ pinv_sym(s_core) @ s_cross.T
        dense = double_center(d)
        assert np.abs(approx - dense).max() <= 1e-7 * np.abs(dense).max()

    def test_summands_match_centering_of_approximated_matrix(self):
        """The block formulas are exactly double centering applied to the
        landmark approximation of D: compare summand by summand."""
        rng = np.random.default_rng(17)
        d = random_squared_dissimilarity(18, rng, dim=6)
        landmarks = np.array([1, 5, 9, 13])
        d_cross = d.values[:, landmarks]
        d_core = d.values[np.ix_(landmarks, landmarks)]
        n = 18
        _, s_cross, stats = nystrom_double_center(d_cross, d_core, landmarks)
        d_hat = d_cross @ pinv_sym(d_core) @ d_cross.T
        row_sums = d_hat.sum(axis=1)
        col_sums = d_hat.sum(axis=0)
        grand = d_hat.sum()
        # summands of the block formula
        t = d_cross @ (stats.core_pinv @ stats.s)
        assert np.abs(d_hat[:, landmarks] - d_cross).max() <= 1e-9 * d.values.max()
        assert np.abs(col_sums[landmarks] - stats.s).max() <= 1e-8 * stats.s.max()
        assert np.abs(row_sums - t).max() <= 1e-8 * t.max()
        assert abs(grand - stats.g) <= 1e-8 * abs(stats.g)
        rebuilt = -0.5 * (d_cross - stats.s[None, :] / n - t[:, None] / n + stats.g / n**2)
        assert np.abs(rebuilt - s_cross).max() <= 1e-12 * np.abs(s_cross).max()

    def test_first_summands_exact_fourth_approximated(self):
        """Against the true dense centering: the cross block and the exact
        column sums match; with non-spanning landmarks only the grand-sum
        (and approximated row-sum) terms deviate."""
        rng = np.random.default_rng(18)
        d = random_squared_dissimilarity(20, rng, dim=8)
        landmarks = np.array([0, 4, 8, 12])
        d_cross = d.values[:, landmarks]
        d_core = d.values[np.ix_(landmarks, landmarks)]
        _, _, stats = nystrom_double_center(d_cross, d_core, landmarks)
        true_col_sums = d.values.sum(axis=0)[landmarks]
        true_grand = d.values.sum()
        true_rows = d.values.sum(axis=1)
        t = d_cross @ (stats.core_pinv @ stats.s)
        assert np.allclose(stats.s, true_col_sums)  # exact by construction
        assert np.allclose(t[landmarks], true_rows[landmarks], rtol=1e-9)
        assert abs(stats.g - true_grand) > 1e-6 * true_grand  # the approximated summand

    def test_landmark_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="landmark rows"):
            nystrom_double_center(np.ones((4, 2)), np.zeros((2, 2)), np.array([0, 1]))

    def test_centering_rows_reproduces_cross(self):
        """Rows centered as d - s/N, taken through the raw core scaled by -0.5,
        give the block formula's centered cross block: E (-0.5 W^+) E[L]^T = S_cross."""
        rng = np.random.default_rng(19)
        d = random_squared_dissimilarity(15, rng)
        landmarks = np.array([2, 6, 10])
        d_cross = d.values[:, landmarks]
        d_core = d.values[np.ix_(landmarks, landmarks)]
        _, s_cross, stats = nystrom_double_center(d_cross, d_core, landmarks)
        again = center_dissimilarity_rows(d_cross, stats)
        rebuilt = again @ (-0.5 * stats.core_pinv) @ again[landmarks].T
        assert np.abs(rebuilt - s_cross).max() <= 1e-12 * np.abs(s_cross).max()

    def test_inputs_left_unchanged(self):
        d = random_squared_dissimilarity(15, np.random.default_rng(20))
        landmarks = np.array([2, 6, 10])
        d_cross = d.values[:, landmarks]
        d_core = d.values[np.ix_(landmarks, landmarks)]
        saved = d_cross.copy(), d_core.copy()
        _, _, stats = nystrom_double_center(d_cross, d_core, landmarks)
        center_dissimilarity_rows(d_cross, stats)
        assert np.array_equal(d_cross, saved[0])
        assert np.array_equal(d_core, saved[1])

    def test_out_centers_in_place_with_the_same_bits(self):
        d = random_squared_dissimilarity(15, np.random.default_rng(21))
        landmarks = np.array([2, 6, 10])
        d_cross = d.values[:, landmarks]
        d_core = d.values[np.ix_(landmarks, landmarks)]
        s_core, s_cross, stats = nystrom_double_center(d_cross, d_core)
        rows = d_cross[4:9].copy()
        want_rows = center_dissimilarity_rows(rows, stats)
        assert center_dissimilarity_rows(rows, stats, out=rows) is rows
        assert np.array_equal(rows, want_rows)
        in_core, in_cross, in_stats = nystrom_double_center(d_cross, d_core, out=d_cross)
        assert in_cross is d_cross
        assert np.array_equal(in_cross, s_cross)
        assert np.array_equal(in_core, s_core)
        assert np.array_equal(in_stats.s, stats.s) and in_stats.g == stats.g

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_rows_keep_the_bits_of_the_one_pass_formula(self, order, in_place):
        m = 7
        rows = 3001
        rng = np.random.default_rng(22)
        d_rows = np.asarray(rng.uniform(0.0, 4.0, (rows, m)), order=order)
        stats = CenteringStats(s=rng.uniform(0.0, 50.0, m), g=321.5, n=40, core_pinv=random_symmetric(m, rng))
        want = d_rows - stats.s[None, :] / stats.n
        got = center_dissimilarity_rows(d_rows, stats, out=d_rows if in_place else None)
        assert (got is d_rows) == in_place
        assert got.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(got, want)


class TestLinearCost:
    def test_touch_count_scales_linearly(self):
        rng = np.random.default_rng(20)
        touches = []
        for n in (40, 80, 160):
            m = random_symmetric(n, rng)
            oracle = as_row_oracle(m)
            nystrom_factors(oracle, np.arange(8), kind=Kind.SIMILARITY)
            touches.append(oracle.entries_touched)
        assert touches == [8 * 40, 8 * 80, 8 * 160]


def ball_oracle() -> RowOracle:
    centers, radii, _ = ball_centers(200, seed=5)
    return RowOracle(lambda i: ball_surface_row(centers, radii, i), len(radii))


def force_split(monkeypatch, workers: int) -> None:
    """Fetch every landmark row after the first on ``workers`` task threads."""
    monkeypatch.setattr(nystrom, "FETCH_SPLIT_S", 0.0)
    patch_workers(monkeypatch, workers)


# Fits a ball oracle on the kept helper thread with the fetch split over 2 task threads, so
# the fetch's own helper task queues behind the fit on the pool's single thread, and saves
# the model of a serial fit and of this one.
HELPER_SCRIPT = """
import os, sys
sys.path.insert(0, sys.argv[1])
from proxkern import (Kind, RowOracle, ball_centers, ball_surface_row, eigencore,
                      fit_corrected_model, nystrom, save_model)
centers, radii, _ = ball_centers(100, seed=5)

def fit():
    oracle = RowOracle(lambda i: ball_surface_row(centers, radii, i), len(radii))
    return fit_corrected_model(oracle, kind=Kind.SQUARED_DISSIMILARITY, m=40, seed=0)

nystrom.FETCH_SPLIT_S = float("inf")
save_model(fit(), sys.argv[2])
nystrom.FETCH_SPLIT_S = 0.0
eigencore._workers = lambda tasks, blas_threads: 2
run_in_order, splits = eigencore._run_in_order, []
eigencore._run_in_order = lambda task, items, workers: splits.append(workers) or run_in_order(
    task, items, workers)
helper = eigencore._helper_pool(1, os.getpid())
save_model(helper.submit(fit).result(), sys.argv[3])
assert splits == [2], splits
"""


class TestSplitFetch:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_split_fetch_keeps_the_serial_bits_and_count(self, monkeypatch, workers):
        landmarks = select_landmarks(400, 60, seed=2)
        monkeypatch.setattr(nystrom, "FETCH_SPLIT_S", math.inf)
        serial = nystrom_factors(ball_oracle(), landmarks, kind=Kind.SQUARED_DISSIMILARITY)
        splits = record_splits(monkeypatch)
        force_split(monkeypatch, workers)  # at 3, more threads than a 2-CPU host has
        oracle = ball_oracle()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost count would show
        try:
            split = nystrom_factors(oracle, landmarks, kind=Kind.SQUARED_DISSIMILARITY)
        finally:
            sys.setswitchinterval(interval)
        assert splits == [workers]
        for name in ("cross", "core", "core_pinv"):
            assert getattr(split, name).tobytes() == getattr(serial, name).tobytes()
        assert oracle.entries_touched == 400 * 60

    def test_a_cheap_dense_source_is_fetched_on_the_calling_thread(self, monkeypatch):
        # the 600-row source of the cross-validation benchmark costs microseconds a row
        values = random_symmetric(600, np.random.default_rng(8))
        splits = record_splits(monkeypatch)
        patch_workers(monkeypatch, 2)
        nystrom_factors(values, select_landmarks(600, 300, seed=1), kind=Kind.SIMILARITY)
        assert splits == [1]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_row_is_fetched_after_the_first_bad_one_fails(self, monkeypatch, workers):
        values = random_symmetric(40, np.random.default_rng(9))
        landmarks = np.array([5, 30, 2, 17, 8, 21, 11, 36, 0, 25])
        values[17, 4] = values[11, 7] = np.nan  # the rows at landmark positions 3 and 6
        slow, fetched = set(landmarks[4:].tolist()), []

        def row(i):
            fetched.append(i)
            if i in slow:  # still running when the bad row at position 3 fails
                time.sleep(0.1)
            return values[i]

        force_split(monkeypatch, workers)
        with pytest.raises(DataError, match=r"non-finite entry at \(17, 4\)"):
            nystrom_factors(RowOracle(row, 40), landmarks, kind=Kind.SIMILARITY)
        assert fetched[:1] == [5] and {5, 30, 2, 17} <= set(fetched)
        assert len(slow.intersection(fetched)) <= workers - 1
        assert 11 not in fetched

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_first_bad_row_is_raised_when_a_later_one_fails_first(self, monkeypatch, workers):
        values = random_symmetric(40, np.random.default_rng(9))
        landmarks = np.array([5, 30, 2, 17, 8, 21, 11, 36, 0, 25])
        values[17, 4] = values[8, 7] = np.nan  # the rows at landmark positions 3 and 4

        def row(i):
            if i == 17:  # so the bad row at position 4 fails first
                time.sleep(0.1)
            return values[i]

        force_split(monkeypatch, workers)
        with pytest.raises(DataError, match=r"non-finite entry at \(17, 4\)"):
            nystrom_factors(RowOracle(row, 40), landmarks, kind=Kind.SIMILARITY)

    def test_a_fit_on_a_kept_helper_thread_returns_the_serial_model(self, tmp_path):
        # in a child process, so a helper stuck behind its own task fails this test at the
        # timeout rather than keeping the interpreter from exiting
        paths = [tmp_path / "serial.pcm", tmp_path / "split.pcm"]
        done = subprocess.run(
            [sys.executable, "-c", HELPER_SCRIPT, str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert paths[1].read_bytes() == paths[0].read_bytes()

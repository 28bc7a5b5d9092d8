import numpy as np
import pytest

from proxkern import (
    Kind,
    ProximityMatrix,
    double_center,
    fit_corrected_model,
    lmds_fit,
    lmds_project,
    sim_to_dis,
)

from conftest import random_squared_dissimilarity


def squared_distances(points: np.ndarray) -> np.ndarray:
    d = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d, 0.0)
    return d


class TestLmdsFit:
    def test_collinear_points_one_dimension(self):
        x = np.array([0.0, 1.0, 2.0])[:, None]
        d = squared_distances(x)
        emb = lmds_fit(d)
        assert emb.landmark_coords.shape[1] == 1
        got = squared_distances(emb.landmark_coords)
        assert np.abs(got - d).max() <= 1e-9

    def test_two_points(self):
        emb = lmds_fit(np.array([[0.0, 2.0], [2.0, 0.0]]))
        diff = emb.landmark_coords[0] - emb.landmark_coords[1]
        assert (diff @ diff) == pytest.approx(2.0)

    def test_planar_set_recovered(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((12, 2))
        d = squared_distances(pts)
        emb = lmds_fit(d)
        got = squared_distances(emb.landmark_coords)
        assert np.abs(got - d).max() <= 1e-8 * d.max()

    def test_dim_caps_positive_directions(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((10, 4))
        emb = lmds_fit(squared_distances(pts), dim=2)
        assert emb.landmark_coords.shape[1] == 2

    def test_no_positive_directions_raises(self):
        with pytest.raises(ValueError, match="positive"):
            lmds_fit(np.zeros((3, 3)))


class TestLmdsProject:
    def test_landmark_self_consistency(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((8, 3))
        d = squared_distances(pts)
        emb = lmds_fit(d)
        projected = lmds_project(emb, d)
        assert np.abs(projected - emb.landmark_coords).max() <= 1e-9 * np.abs(
            emb.landmark_coords
        ).max()

    def test_empty_query(self):
        emb = lmds_fit(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert lmds_project(emb, np.zeros((0, 2))).shape == (0, 1)

    def test_holdouts_reproduce_landmark_distances(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 2))
        landmarks = np.arange(8)
        holdout = np.arange(8, 30)
        d_core = squared_distances(pts)[np.ix_(landmarks, landmarks)]
        d_cross = squared_distances(pts)[np.ix_(holdout, landmarks)]
        emb = lmds_fit(d_core)
        coords = lmds_project(emb, d_cross)
        for i, row in enumerate(coords):
            got = ((emb.landmark_coords - row) ** 2).sum(axis=1)
            assert np.abs(got - d_cross[i]).max() <= 1e-6 * d_cross.max()


class TestLmdsSimilarities:
    def test_full_landmarks_match_double_centering(self):
        rng = np.random.default_rng(4)
        d = random_squared_dissimilarity(15, rng, dim=3)
        emb = lmds_fit(d.values)
        sims = emb.landmark_coords @ emb.landmark_coords.T
        dense = double_center(d)
        assert np.abs(sims - dense).max() <= 1e-6 * np.abs(dense).max()


class TestAgreementWithCorrectedPipeline:
    def test_euclidean_data_same_dissimilarities(self):
        """On psd (Euclidean) data with spanning landmarks both pipelines
        reproduce the true geometry; gram matrices differ only by the
        centering origin, so the induced dissimilarities must agree."""
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((24, 3))
        d_full = squared_distances(pts)
        landmarks = np.arange(6)  # spans a 3-d point set generously
        d = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, d_full)
        model = fit_corrected_model(d, landmarks=landmarks, mode="clip")
        corrected_sims = model.cross @ model.w_star @ model.cross.T
        diag = np.diag(corrected_sims)
        d_corrected = diag[:, None] + diag[None, :] - 2 * corrected_sims

        emb = lmds_fit(d_full[np.ix_(landmarks, landmarks)])
        coords = lmds_project(emb, d_full[:, landmarks])
        sims = coords @ coords.T
        d_lmds = sim_to_dis(sims)
        assert np.abs(d_corrected - d_lmds).max() <= 1e-5 * d_full.max()

    def test_full_landmarks_same_similarities(self):
        """With every point a landmark the centering origins coincide and
        the similarity blocks agree directly."""
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((14, 3))
        d_full = squared_distances(pts)
        d = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, d_full)
        landmarks = np.arange(14)
        model = fit_corrected_model(d, landmarks=landmarks, mode="clip")
        corrected = model.cross @ model.w_star @ model.cross.T
        emb = lmds_fit(d_full)
        sims = emb.landmark_coords @ emb.landmark_coords.T
        assert np.abs(corrected - sims).max() <= 1e-5 * np.abs(sims).max()

    def test_ball_data_flip_differs_from_lmds(self, ball600):
        """On data with informative negative eigenvalues the two pipelines
        must separate: flip keeps what L-MDS clips away."""
        matrix, _ = ball600
        values = matrix.values
        rng = np.random.default_rng(8)
        landmarks = np.sort(rng.choice(600, size=30, replace=False))
        d_core = values[np.ix_(landmarks, landmarks)]
        model = fit_corrected_model(matrix, landmarks=landmarks, mode="flip")
        flip_core = (
            model.cross[landmarks] @ model.w_star @ model.cross[landmarks].T
        )
        emb = lmds_fit(d_core)
        lmds_core = emb.landmark_coords @ emb.landmark_coords.T
        rel = np.linalg.norm(flip_core - lmds_core) / np.linalg.norm(flip_core)
        assert rel > 0.10

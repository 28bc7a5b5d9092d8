import numpy as np
import pytest

from proxkern import (
    Kind,
    KindMismatchError,
    ProximityMatrix,
    double_center,
    sim_to_dis,
)

from conftest import random_squared_dissimilarity


def dis(values) -> ProximityMatrix:
    return ProximityMatrix(Kind.SQUARED_DISSIMILARITY, np.asarray(values, dtype=float))


class TestDoubleCenter:
    def test_hand_example(self):
        s = double_center(dis([[0.0, 2.0], [2.0, 0.0]]))
        assert np.allclose(s, [[0.5, -0.5], [-0.5, 0.5]])

    def test_zero_matrix(self):
        assert np.array_equal(double_center(dis(np.zeros((4, 4)))), np.zeros((4, 4)))

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        d = random_squared_dissimilarity(30, rng)
        s = double_center(d)
        bound = 1e-9 * d.n * max(np.abs(s).max(), 1.0)
        assert np.abs(s.sum(axis=0)).max() <= bound
        assert np.abs(s.sum(axis=1)).max() <= bound

    def test_rejects_similarity_input(self):
        with pytest.raises(KindMismatchError):
            double_center(ProximityMatrix(Kind.SIMILARITY, np.eye(2)))


class TestSimToDis:
    def test_hand_example(self):
        d = sim_to_dis(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        assert np.allclose(d, [[0.0, 2.0], [2.0, 0.0]])

    def test_identity_matrix(self):
        d = sim_to_dis(np.eye(3))
        off = d[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0)
        assert np.all(np.diag(d) == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = random_squared_dissimilarity(int(rng.integers(2, 40)), rng)
            back = sim_to_dis(double_center(d))
            assert np.abs(back - d.values).max() <= 1e-10

    def test_structural_negative_raises(self):
        # diag 0 makes every off-diagonal "dissimilarity" -2 s_ij
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            sim_to_dis(s)

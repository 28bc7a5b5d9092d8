import threading
import time

import numpy as np
import pytest

from proxkern import eigencore, pinv_sym, signature_of, sym_eig

from conftest import random_symmetric


class TestSymEig:
    def test_diagonal(self):
        vectors, values = sym_eig(np.diag([3.0, -2.0]))
        assert values.tolist() == [3.0, -2.0]
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_offdiagonal_pair(self):
        # [[0,1],[1,0]] has eigenpairs (1, (1,1)/sqrt 2) and (-1, (1,-1)/sqrt 2)
        vectors, values = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [1.0, -1.0])
        assert np.allclose(np.abs(vectors[:, 0]), [1, 1] / np.sqrt(2))
        assert np.allclose(np.abs(vectors[:, 1]), [1, 1] / np.sqrt(2))

    def test_identity(self):
        _, values = sym_eig(np.eye(4))
        assert np.allclose(values, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_descending_order_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_symmetric(int(rng.integers(2, 30)), rng)
            vectors, values = sym_eig(m)
            assert np.all(np.diff(values) <= 1e-12)
            assert np.allclose(vectors.T @ vectors, np.eye(len(values)), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            n = int(rng.integers(2, 200))
            m = random_symmetric(n, rng)
            vectors, values = sym_eig(m)
            err = np.abs((vectors * values) @ vectors.T - m).max()
            assert err <= 1e-8 * np.linalg.norm(m, 2)

    def test_residual_contract(self):
        rng = np.random.default_rng(2)
        m = random_symmetric(40, rng)
        vectors, values = sym_eig(m)
        norm = np.linalg.norm(m, 2)
        for col in range(40):
            res = np.linalg.norm(m @ vectors[:, col] - values[col] * vectors[:, col])
            assert res <= 1e-8 * norm


class TestPinvSym:
    def test_diagonal_with_exact_zero(self):
        out = pinv_sym(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_thresholding_rule(self):
        # 1e-18 is below 1e-12 * 4, so it is zeroed; -2 is inverted
        out = pinv_sym(np.diag([4.0, -2.0, 1e-18]))
        assert np.allclose(out, np.diag([0.25, -0.5, 0.0]))

    def test_zero_matrix(self):
        assert np.array_equal(pinv_sym(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_moore_penrose_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_symmetric(12, rng)
            p = pinv_sym(m)
            assert np.abs(m @ p @ m - m).max() <= 1e-9 * max(1.0, np.abs(m).max())

    def test_idempotent_on_image(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            m = random_symmetric(10, rng)
            restored = pinv_sym(pinv_sym(m))
            assert np.abs(restored - m).max() <= 1e-8 * np.abs(m).max()


class TestSignature:
    def test_mixed(self):
        assert signature_of(np.array([3.0, -2.0, 0.0])) == (1, 1, 1)

    def test_all_zero(self):
        assert signature_of(np.zeros(5)) == (0, 0, 5)

    def test_sums_to_dimension(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(37)
        sig = signature_of(values)
        assert sig.p + sig.q + sig.z == 37

    def test_band_scales_with_max(self):
        values = np.array([1e6, 1.0, -1e-4])
        # explicit band swallowing the small entries
        assert signature_of(values, rel_tol=1e-2) == (1, 0, 2)


class TestRunInOrder:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("first_fails", [False, True])
    def test_only_the_items_after_the_first_failure_are_skipped(self, workers, first_fails):
        # on 2 threads item 1 raises while item 0 still runs; item 2 is taken after that
        one_raised, ended = threading.Event(), []

        def task(item):
            if item == 1:
                one_raised.set()
                raise ArithmeticError("item 1 failed")
            if item == 0 and workers == 2:
                assert one_raised.wait(timeout=60)
                time.sleep(0.1)  # the other thread records the failure, then takes item 2
            ended.append(item)
            if item == 0 and first_fails:
                raise ArithmeticError("item 0 failed")
            return item

        with pytest.raises(ArithmeticError, match=f"item {0 if first_fails else 1} failed"):
            eigencore._run_in_order(task, [0, 1, 2], workers)
        assert ended == [0]  # item 0 ran to its end, item 2 never ran

import hashlib
import tracemalloc

import numpy as np
import pytest

from proxkern import dataio
from proxkern import (
    DataError,
    Kind,
    ProximityMatrix,
    ball_centers,
    ball_dataset,
    ball_surface_row,
    read_block,
    read_labels,
    read_matrix,
    write_block,
    write_labels,
    write_matrix,
)


class TestCsv:
    def test_smallest_valid_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,4\n4,0\n")
        matrix = read_matrix(path, "csv", Kind.SQUARED_DISSIMILARITY)
        assert matrix.n == 2
        assert matrix.values[0, 1] == 4.0
        assert not matrix.asymmetric

    def test_asymmetry_is_averaged_and_flagged(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n2,0\n")
        matrix = read_matrix(path, "csv", Kind.SQUARED_DISSIMILARITY)
        # symmetrization rule: (1 + 2) / 2
        assert matrix.values[0, 1] == pytest.approx(1.5)
        assert matrix.values[1, 0] == pytest.approx(1.5)
        assert matrix.asymmetric

    def test_csv_needs_explicit_kind(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0\n")
        with pytest.raises(DataError):
            read_matrix(path, "csv")

    def test_output_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        m = ProximityMatrix(Kind.SIMILARITY, (a + a.T) / 2)
        path = tmp_path / "s.csv"
        write_matrix(m, path, "csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_round_trip_close(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) * 1e6
        m = ProximityMatrix(Kind.SIMILARITY, (a + a.T) / 2)
        path = tmp_path / "s.csv"
        write_matrix(m, path, "csv")
        back = read_matrix(path, "csv", Kind.SIMILARITY)
        assert np.allclose(back.values, m.values, rtol=1e-15, atol=0)

    def test_non_square_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(DataError, match="row 1"):
            read_matrix(path, "csv", Kind.SIMILARITY)

    def test_bad_value_reports_coordinate(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            read_matrix(path, "csv", Kind.SIMILARITY)


class TestPmx:
    def test_one_by_one_layout(self, tmp_path):
        m = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, np.zeros((1, 1)))
        path = tmp_path / "z.pmx"
        write_matrix(m, path, "pmx")
        raw = path.read_bytes()
        assert raw[:4] == b"PMX1"
        assert raw[4] == 1
        assert len(raw) == 4 + 1 + 8 + 8

    def test_round_trip_bit_equal(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        m = ProximityMatrix(Kind.SIMILARITY, (a + a.T) / 2)
        path = tmp_path / "m.pmx"
        write_matrix(m, path, "pmx")
        back = read_matrix(path, "pmx")
        assert back.kind is Kind.SIMILARITY
        assert np.array_equal(back.values, m.values)

    def test_round_trip_arbitrary_finite(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(1, 12))
            a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-12, 12)
            m = ProximityMatrix(Kind.SIMILARITY, (a + a.T) / 2)
            path = tmp_path / f"m{trial}.pmx"
            write_matrix(m, path, "pmx")
            assert np.array_equal(read_matrix(path, "pmx").values, m.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pmx"
        path.write_bytes(b"NOPE" + bytes(17))
        with pytest.raises(DataError, match="magic"):
            read_matrix(path, "pmx")

    def test_truncated_payload(self, tmp_path):
        m = ProximityMatrix(Kind.SIMILARITY, np.eye(3))
        path = tmp_path / "t.pmx"
        write_matrix(m, path, "pmx")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="expected"):
            read_matrix(path, "pmx")

    def test_nan_reports_coordinate(self, tmp_path):
        values = np.eye(2)
        m = ProximityMatrix(Kind.SIMILARITY, values)
        path = tmp_path / "n.pmx"
        write_matrix(m, path, "pmx")
        raw = bytearray(path.read_bytes())
        raw[13 + 8 : 13 + 16] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            read_matrix(path, "pmx")

    def test_kind_must_agree_with_header(self, tmp_path):
        path = tmp_path / "d.pmx"
        write_matrix(ProximityMatrix(Kind.SQUARED_DISSIMILARITY, 1.0 - np.eye(3)), path, "pmx")
        with pytest.raises(DataError, match="contradicts the PMX header"):
            read_matrix(path, "pmx", Kind.SIMILARITY)
        assert read_matrix(path, "pmx", Kind.SQUARED_DISSIMILARITY).kind is Kind.SQUARED_DISSIMILARITY


class TestBlocks:
    def test_rectangular_round_trip(self, tmp_path):
        block = np.arange(12, dtype=float).reshape(3, 4)
        path = tmp_path / "b.pmb"
        write_block(block, path, Kind.SIMILARITY)
        back, kind = read_block(path)
        assert kind is Kind.SIMILARITY
        assert np.array_equal(back, block)

    def test_reads_square_pmx_too(self, tmp_path):
        m = ProximityMatrix(Kind.SIMILARITY, np.eye(2))
        path = tmp_path / "m.pmx"
        write_matrix(m, path, "pmx")
        back, kind = read_block(path)
        assert np.array_equal(back, np.eye(2))

    def test_square_pmx_block_is_not_symmetrized(self, tmp_path):
        block = np.arange(9, dtype=float).reshape(3, 3)
        path = tmp_path / "q.pmx"
        path.write_bytes(b"PMX1\x00" + (3).to_bytes(8, "little") + block.astype("<f8").tobytes())
        back, _ = read_block(path)
        assert np.array_equal(back, block)

    def test_square_pmx_block_skips_matrix_checks(self, tmp_path):
        # a squared-dissimilarity query block may have a nonzero diagonal
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "q.pmx"
        path.write_bytes(b"PMX1\x01" + (2).to_bytes(8, "little") + block.astype("<f8").tobytes())
        back, kind = read_block(path)
        assert kind is Kind.SQUARED_DISSIMILARITY
        assert np.array_equal(back, block)

    def test_non_finite_block_rejected(self, tmp_path):
        path = tmp_path / "b.pmb"
        write_block(np.array([[1.0, np.nan]]), path)
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            read_block(path)


class TestMatrixInvariants:
    def test_dissimilarity_rejects_nonzero_diagonal(self):
        with pytest.raises(DataError, match=r"\(1, 1\)"):
            ProximityMatrix(Kind.SQUARED_DISSIMILARITY, np.array([[0.0, 1.0], [1.0, 0.5]]))

    def test_dissimilarity_rejects_negative_entries(self):
        with pytest.raises(DataError, match="negative"):
            ProximityMatrix(Kind.SQUARED_DISSIMILARITY, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DataError, match="square"):
            ProximityMatrix(Kind.SIMILARITY, np.zeros((2, 3)))

    def test_direct_construction_symmetrizes_and_flags(self):
        m = ProximityMatrix(Kind.SIMILARITY, np.array([[1.0, 2.0], [4.0, 1.0]]))
        assert np.array_equal(m.values, [[1.0, 3.0], [3.0, 1.0]])
        assert m.asymmetric

    def test_symmetric_input_kept_bit_for_bit(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        before = a.copy()
        m = ProximityMatrix(Kind.SIMILARITY, a)
        assert m.values is a
        assert np.array_equal(m.values.view(np.uint64), before.view(np.uint64))
        assert not m.asymmetric

    def test_mismatched_signed_zeros_are_averaged(self):
        m = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, np.array([[0.0, -0.0], [0.0, 0.0]]))
        assert not np.signbit(m.values).any()
        assert not m.asymmetric

    def test_asymmetric_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            ProximityMatrix(Kind.SIMILARITY, np.eye(2), asymmetric=True)


def _symmetric_pmx(path, kind, n, seed):
    a = np.random.default_rng(seed).uniform(0.0, 1.0, (n, n))
    a = (a + a.T) / 2
    if kind is Kind.SQUARED_DISSIMILARITY:
        np.fill_diagonal(a, 0.0)
    write_matrix(ProximityMatrix(kind, a), path, "pmx")
    return a


class TestReadCost:
    def test_symmetric_pmx_is_scanned_for_finiteness_once(self, tmp_path, monkeypatch):
        path = tmp_path / "s.pmx"
        _symmetric_pmx(path, Kind.SIMILARITY, 50, seed=8)
        calls = []
        check = dataio._check_finite

        def counting(a):
            calls.append(a.shape)
            check(a)

        monkeypatch.setattr(dataio, "_check_finite", counting)
        read_matrix(path, "pmx")
        assert calls == [(50, 50)]

    @pytest.mark.parametrize("kind", list(Kind))
    def test_symmetric_pmx_read_peak_below_one_and_a_half_payloads(self, tmp_path, kind):
        n = 1000
        path = tmp_path / "s.pmx"
        a = _symmetric_pmx(path, kind, n, seed=9)
        tracemalloc.start()
        try:
            m = read_matrix(path, "pmx")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(m.values, a)
        assert peak < 1.5 * 8 * n * n


class TestLabels:
    def test_round_trip_and_normalization(self, tmp_path):
        path = tmp_path / "l.lab"
        write_labels(np.array([5, 9, 5, 2]), path)
        labels = read_labels(path)
        assert labels.tolist() == [1, 2, 1, 0]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "l.lab"
        path.write_text("1\nx\n")
        with pytest.raises(DataError, match="line 2"):
            read_labels(path)


def dense_ball_values(centers, radii):
    """Squared surface distances from the all-pairs formula, the reference for the row builder."""
    diff = centers[:, None, :] - centers[None, :, :]
    center_dist = np.sqrt((diff**2).sum(axis=-1))
    surface = center_dist - radii[:, None] - radii[None, :]
    values = surface**2
    np.fill_diagonal(values, 0.0)
    return (values + values.T) / 2.0


def reference_ball_row(centers, radii, i):
    """The row builder's former one-line formula, whose bits the column loop must keep."""
    d = np.linalg.norm(centers - centers[i], axis=1) - radii - radii[i]
    row = d**2
    row[i] = 0.0
    return row


def center_layouts(n, dim, seed):
    """The same kind of centers in C order, in Fortran order and as a strided view."""
    rng = np.random.default_rng(seed)
    wide = rng.uniform(0.0, 10.0, size=(n, 2 * dim))
    return {
        "C": np.ascontiguousarray(wide[:, :dim]),
        "F": np.asfortranarray(wide[:, :dim]),
        "strided": wide[:, ::2],
    }, rng.uniform(0.1, 1.0, size=n)


class TestBallSurfaceRow:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_bits_equal_the_reference_formula(self, dim):
        # dims below 8 take the column loop, dims from 8 on the axis reduction
        for n in (2, 7, 1000, 100000):
            layouts, radii = center_layouts(n, dim, seed=1000 * dim + n)
            for layout, centers in layouts.items():
                for i in (0, n // 3, n - 1):
                    got = ball_surface_row(centers, radii, i)
                    want = reference_ball_row(centers, radii, i)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                        f"dim={dim} n={n} {layout} row {i}"
                    )

    def test_row_scratch_is_two_vectors(self):
        n = 200_000
        layouts, radii = center_layouts(n, 5, seed=3)
        centers = layouts["C"]
        tracemalloc.start()
        try:
            ball_surface_row(centers, radii, n // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n

    def test_golden_digests(self):
        # a change that moves the ball data's bits must say so by editing these digests
        matrix, _ = ball_dataset(300, seed=11)
        assert hashlib.sha256(matrix.values.tobytes()).hexdigest() == (
            "e0a88518330d40b6968a813cf2a8a513509f640d3e0d39fd5ed12d625c4b3443"
        )
        rng = np.random.default_rng(20000)
        centers = rng.uniform(0.0, 40.0, size=(20000, 5))
        radii = rng.uniform(0.2, 0.8, size=20000)
        rows = np.stack([ball_surface_row(centers, radii, i) for i in (0, 1, 19999)])
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "85bb45610d2f21af63261b4c2df66ebf42b2c6e47b59aba52973437a212f6238"
        )


class TestBallDataset:
    def test_two_ball_entry_from_formula(self):
        # centers 1.0 apart, radii 0.2 and 0.3: surface gap 0.5, squared 0.25
        centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        radii = np.array([0.2, 0.3])
        row = ball_surface_row(centers, radii, 0)
        assert row[1] == pytest.approx(0.25)
        assert row[0] == 0.0

    def test_diagonal_zero_and_offdiag_positive(self):
        matrix, _ = ball_dataset(15, seed=4)
        values = matrix.values
        assert np.all(np.diag(values) == 0.0)
        off = values[~np.eye(matrix.n, dtype=bool)]
        assert off.min() > 0.0

    def test_matches_center_formula(self):
        centers, radii, _ = ball_centers(10, seed=5)
        matrix, _ = ball_dataset(10, seed=5)
        for i in range(matrix.n):
            assert np.allclose(matrix.values[i], ball_surface_row(centers, radii, i))

    @pytest.mark.parametrize(
        "n_per_class, dim, box, seed",
        [(15, 5, None, 11), (40, 5, None, 3), (7, 2, None, 1), (25, 3, 9.0, 2), (30, 16, 20.0, 7)],
    )
    def test_matches_dense_formula_exactly(self, n_per_class, dim, box, seed):
        centers, radii, _ = ball_centers(n_per_class, dim, box=box, seed=seed)
        matrix, _ = ball_dataset(n_per_class, dim, box=box, seed=seed)
        assert np.array_equal(matrix.values, dense_ball_values(centers, radii))

    def test_deterministic_per_seed(self):
        a, la = ball_dataset(8, seed=6)
        b, lb = ball_dataset(8, seed=6)
        c, _ = ball_dataset(8, seed=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(la, lb)
        assert not np.array_equal(a.values, c.values)

    def test_overfull_box_raises(self):
        with pytest.raises(ValueError, match="attempts"):
            ball_dataset(200, box=1.0, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dim": 0}, "dim must be at least 1"),
            ({"box": 0.0}, "box must be positive"),
            ({"box": -1.0}, "box must be positive"),
        ],
    )
    def test_degenerate_space_raises_before_drawing(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ball_centers(2, **kwargs)

    def test_labels_split_by_radius(self):
        _, radii, labels = ball_centers(5, radius_a=0.25, radius_b=0.75, seed=1)
        assert np.all(radii[labels == 0] == 0.25)
        assert np.all(radii[labels == 1] == 0.75)

    def test_negative_eigenvalues_present(self, ball600):
        """The benchmark data is non-Euclidean: the centered similarity
        matrix must have a substantial negative eigenvalue fraction."""
        from proxkern import double_center, signature_of, sym_eig

        matrix, _ = ball600
        _, values = sym_eig(double_center(matrix))
        sig = signature_of(values)
        assert sig.q > 0

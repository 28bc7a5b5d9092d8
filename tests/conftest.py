import numpy as np
import pytest

from proxkern import Kind, ProximityMatrix, eigencore


def random_squared_dissimilarity(n: int, rng: np.random.Generator, dim: int = 4) -> ProximityMatrix:
    """Valid squared dissimilarity matrix from random points (Euclidean, psd-representable)."""
    x = rng.standard_normal((n, dim))
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(sq, 0.0)
    return ProximityMatrix(Kind.SQUARED_DISSIMILARITY, (sq + sq.T) / 2.0)


def random_indefinite_dissimilarity(n: int, rng: np.random.Generator) -> ProximityMatrix:
    """Non-metric squared dissimilarities: (distance - offset)^2 on random points.

    Subtracting a constant from Euclidean distances before squaring pushes
    part of the spectrum of the centered matrix negative, the same mechanism
    as the ball benchmark.
    """
    x = rng.standard_normal((n, 3))
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    off = dist[~np.eye(n, dtype=bool)]
    c = 0.4 * off.min()
    values = (dist - c) ** 2
    np.fill_diagonal(values, 0.0)
    return ProximityMatrix(Kind.SQUARED_DISSIMILARITY, (values + values.T) / 2.0)


def random_symmetric(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random symmetric (generally indefinite) matrix, optionally of fixed rank."""
    if rank is None:
        a = rng.standard_normal((n, n))
        return (a + a.T) / 2.0
    basis = rng.standard_normal((n, rank))
    spectrum = rng.standard_normal(rank) * np.linspace(2.0, 0.5, rank)
    return (basis * spectrum) @ basis.T


def patch_workers(monkeypatch, workers: int) -> None:
    """Make the task-thread rule give ``workers`` threads, whatever the BLAS and the CPUs."""
    monkeypatch.setattr(eigencore, "_workers", lambda tasks, blas_threads: workers)


@pytest.fixture(scope="session")
def ball600():
    """The 600-sample ball benchmark shared by the expensive tests."""
    from proxkern import ball_dataset

    matrix, labels = ball_dataset(300, seed=11)
    return matrix, labels

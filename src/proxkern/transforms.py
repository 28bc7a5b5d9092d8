"""Dense conversions between squared dissimilarities and similarities.

``double_center`` and ``sim_to_dis`` are the exact O(N^2) reference
transformations that the landmark pipeline reproduces at linear cost; the
dense baseline, the CLI's ``convert`` and the tests use them, and landmark
MDS centers its landmark block with the same code.  Centering uses the
expanded form

    S = -0.5 * (D - r 1^T / N - 1 r^T / N + g 11^T / N^2),   r = D 1,  g = 1^T r

which avoids materializing the centering projector.
"""

from __future__ import annotations

import numpy as np

from .dataio import DataError, Kind, ProximityMatrix

# negative entries no larger than this (relative) are treated as round-off in sim_to_dis
CLAMP_TOL = 1e-9


class KindMismatchError(DataError):
    """Operation applied to a proximity matrix of the wrong kind."""


def double_center(d: ProximityMatrix) -> np.ndarray:
    """Turn squared dissimilarities into mean-centered inner products.

    The result is symmetric with zero row and column sums.
    """
    if d.kind is not Kind.SQUARED_DISSIMILARITY:
        raise KindMismatchError("double_center expects a squared dissimilarity matrix")
    return _double_center(d.values)


def _double_center(values: np.ndarray) -> np.ndarray:
    """The expanded centering formula on a square array, symmetrized."""
    n = values.shape[0]
    r = values.sum(axis=1)
    g = r.sum()
    s = -0.5 * (values - r[:, None] / n - r[None, :] / n + g / n**2)
    return (s + s.T) / 2.0


def sim_to_dis(s: np.ndarray) -> np.ndarray:
    """Element-wise conversion of inner products to squared dissimilarities.

    ``D_ij = S_ii + S_jj - 2 S_ij``.  Small negative round-off values are
    clamped to zero; structurally negative entries indicate the input was
    not a valid inner-product matrix and raise instead.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    diag = np.diag(s)
    d = diag[:, None] + diag[None, :] - 2.0 * s
    scale = np.abs(s).max() if s.size else 0.0
    floor = -CLAMP_TOL * scale
    if d.size and d.min() < floor:
        i, j = np.unravel_index(int(d.argmin()), d.shape)
        raise ValueError(
            f"structurally negative dissimilarity {d[i, j]} at ({i}, {j}); "
            "input is not an inner-product-like matrix"
        )
    np.clip(d, 0.0, None, out=d)
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0

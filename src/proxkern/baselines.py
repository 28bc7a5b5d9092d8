"""Comparison baseline: landmark MDS.

Landmark MDS double-centers only the landmark block, embeds the landmarks
into the Euclidean span of the positive eigenvalue directions and places
every other point by triangulating against its landmark distances.  Keeping
only positive directions is an implicit clip of the spectrum, which is
exactly what makes it a useful baseline here.  The other baseline, the
dissimilarity space, needs no code: its features are the raw squared
dissimilarities to the landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigencore import signature_of, sym_eig
from .transforms import _double_center


@dataclass
class LmdsEmbedding:
    landmark_coords: np.ndarray  # m x k
    projection: np.ndarray  # k x m triangulation operator
    mean_landmark_dissim: np.ndarray  # column means of the landmark block


def lmds_fit(d_core: np.ndarray, dim: int | None = None) -> LmdsEmbedding:
    """Classical MDS on the landmark block of squared dissimilarities.

    Keeps the top ``min(dim, p)`` positive directions (all of them when dim
    is None).  Raises when the centered block has no positive eigenvalues.
    """
    d_core = np.asarray(d_core, dtype=np.float64)
    m = d_core.shape[0]
    if d_core.shape != (m, m):
        raise ValueError(f"landmark block must be square, got {d_core.shape}")
    vectors, values = sym_eig(_double_center(d_core))
    sig = signature_of(values)
    if sig.p == 0:
        raise ValueError("landmark block has no positive eigenvalues; nothing to embed")
    k = sig.p if dim is None else min(dim, sig.p)
    top_vals = values[:k]
    top_vecs = vectors[:, :k]
    coords = top_vecs * np.sqrt(top_vals)
    projection = (top_vecs / np.sqrt(top_vals)).T
    return LmdsEmbedding(coords, projection, d_core.mean(axis=0))


def lmds_project(e: LmdsEmbedding, d_new: np.ndarray) -> np.ndarray:
    """Triangulate new points from their squared distances to the landmarks."""
    d_new = np.atleast_2d(np.asarray(d_new, dtype=np.float64))
    if d_new.shape[1] != len(e.mean_landmark_dissim):
        raise ValueError(
            f"query rows have width {d_new.shape[1]}, embedding has m={len(e.mean_landmark_dissim)}"
        )
    return -0.5 * (d_new - e.mean_landmark_dissim) @ e.projection.T

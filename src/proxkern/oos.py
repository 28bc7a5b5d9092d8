"""Out-of-sample extension of corrected models.

New objects never trigger a refit: the fitted ``w_star`` and, for
dissimilarity-born models, the frozen column sums of the fit are applied to
the new rows of raw proximities against the landmarks.  A new dissimilarity
row d is centered as ``d - s / N``, exactly as the fit centered its own
rows, so the rest of the double centering sits in ``w_star``.
``extend_similarities`` and ``extend_dissimilarities`` return the block
between the new objects and the fitted rows; ``extend_features`` returns
feature rows, whose dot products also give the similarities among the new
objects themselves.
"""

from __future__ import annotations

import numpy as np

from .corrections import CorrectedModel
from .nystrom import center_dissimilarity_rows


def extend_similarities(model: CorrectedModel, s_new: np.ndarray) -> np.ndarray:
    """Corrected similarities between t new points and the fitted rows.

    ``s_new`` holds the new points' proximities to the m landmarks as the
    model's ``cross`` holds them: raw similarities, or for a
    dissimilarity-born model squared dissimilarities already centered by
    ``center_dissimilarity_rows``.  Returns the t x N block
    ``(s_new @ w_star) @ cross.T``.
    Rows of the training cross block reproduce their corrected_block rows
    exactly.
    """
    s_new = np.atleast_2d(np.asarray(s_new, dtype=np.float64))
    if s_new.shape[1] != model.m:
        raise ValueError(f"query rows have width {s_new.shape[1]}, model has m={model.m}")
    return (s_new @ model.w_star) @ model.cross.T


def extend_dissimilarities(model: CorrectedModel, d_new: np.ndarray) -> np.ndarray:
    """Corrected similarities for new squared dissimilarity rows.

    Each row d is centered as ``d - s / N`` with the per-landmark column
    sums s and the training count N frozen at fit time, one subtraction per
    entry, then extended like a similarity query.
    """
    if model.stats is None:
        raise ValueError(
            "model carries no centering statistics (similarity-born); "
            "use extend_similarities"
        )
    d_new = np.atleast_2d(np.asarray(d_new, dtype=np.float64))
    return extend_similarities(model, center_dissimilarity_rows(d_new, model.stats))


def extend_features(model: CorrectedModel, prox_new: np.ndarray) -> np.ndarray:
    """Feature-space form of the extension: rows in the map ``F = S R``.

    The corrected similarity between any two extended objects is the dot
    product of their feature rows.  Requires the model's feature factor,
    which exists for clip and flip (and any psd corrected spectrum).  Rows
    for a dissimilarity-born model are squared dissimilarities, centered
    as in ``extend_dissimilarities``.
    """
    if model.r is None:
        raise ValueError(
            f"mode {model.mode!r} left negative directions; no real feature map (use clip or flip)"
        )
    prox_new = np.atleast_2d(np.asarray(prox_new, dtype=np.float64))
    if model.stats is not None:
        prox_new = center_dissimilarity_rows(prox_new, model.stats)
    if prox_new.shape[1] != model.m:
        raise ValueError(f"query rows have width {prox_new.shape[1]}, model has m={model.m}")
    return prox_new @ model.r

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

from . import eigencore
from .corrections import CorrectedModel
from .nystrom import center_dissimilarity_rows

# t * m * N multiply-adds from which an extension's product is split over threads:
# on 2 CPUs with one BLAS thread a split product of 6.4e6 was no faster than serial
# (waking a helper takes about 0.1 ms) and one of 1.6e7 took 0.73x of its time
SPLIT_WORK = 1 << 23
# each thread's column range starts at a multiple of this, so it is packed and
# summed as in the whole product and the split leaves every bit as it was
SPLIT_COLUMNS = 64


def extend_similarities(model: CorrectedModel, s_new: np.ndarray) -> np.ndarray:
    """Corrected similarities between t new points and the fitted rows.

    ``s_new`` holds the new points' proximities to the m landmarks as the
    model's ``cross`` holds them: raw similarities, or for a
    dissimilarity-born model squared dissimilarities already centered by
    ``center_dissimilarity_rows``.  Returns the t x N block
    ``(s_new @ w_star) @ cross.T``.
    Rows of the training cross block reproduce their corrected_block rows
    exactly.

    From ``SPLIT_WORK`` multiply-adds on, with a single-threaded BLAS, the
    second product fills column ranges of the block on the task threads of
    ``eigencore``, bit for bit the serial product.
    """
    s_new = np.atleast_2d(np.asarray(s_new, dtype=np.float64))
    if s_new.shape[1] != model.m:
        raise ValueError(f"query rows have width {s_new.shape[1]}, model has m={model.m}")
    a, cross_t = s_new @ model.w_star, model.cross.T
    t, n = len(a), model.n
    panels, workers = -(-n // SPLIT_COLUMNS), 1
    if t * model.m * n >= SPLIT_WORK:
        workers = eigencore._workers(panels, eigencore._blas_threads())
    if workers == 1:
        return a @ cross_t
    out = np.empty((t, n))
    edges = [panels * i // workers * SPLIT_COLUMNS for i in range(workers)] + [n]

    def fill(cols: slice) -> None:
        np.matmul(a, cross_t[:, cols], out=out[:, cols])

    eigencore._run_in_order(fill, [slice(*e) for e in zip(edges, edges[1:])], workers)
    return out


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

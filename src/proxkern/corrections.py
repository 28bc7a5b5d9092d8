"""Eigenvalue corrections and the corrected kernel model.

A corrected model evaluates

    S_star[i, j] = cross[i] @ w_star @ cross[j]^T

where ``w_star`` re-expresses the corrected spectrum ``A*`` over the raw
landmark proximities, so new objects only need their proximities to the
landmarks.  For clip and flip the corrected matrix is positive
semi-definite and ``w_star = R R^T`` provides an explicit feature map
``F = cross @ R`` with ``F F^T = S_star``.

There is one fit path: ``fit_corrected_model`` draws the landmarks and
builds the factors, and ``fit_corrected_model_from_factors`` runs the
stages that follow (centering, eigendecomposition, model build).  The
library, the CLI, cross-validation and the scaling benchmark all call it.
Every cut of a small eigenvalue or singular value is relative, at
``DEFAULT_PINV_TOL``.

``save_model`` and ``load_model`` store a model as a PCM2 file through the
container reader and writer of ``dataio``, which every binary format of
the package shares.  PCM2 stores the cross block as it lies after a fit,
landmark-major, so a save copies nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import DataError, Kind, checked_landmarks, read_container, write_container
from .eigencore import DEFAULT_PINV_TOL, pinv_sym
from .nystrom import (
    CenteringStats,
    EigenModel,
    NystromFactors,
    as_row_oracle,
    nystrom_double_center,
    nystrom_eig_indefinite,
    nystrom_factors,
    select_landmarks,
)

MODES = ("clip", "flip", "shift", "none")

# singular-value ratio of the (centered) cross block above which the model is flagged
ILL_CONDITION_LIMIT = 1e12


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` is one of ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"unknown correction mode {mode!r}; expected one of {MODES}")


def correct_eigenvalues(values: np.ndarray, mode: str) -> np.ndarray:
    """Apply an eigenvalue correction.

    flip takes absolute values, clip zeroes the negative ones, shift adds
    ``|min|`` to every eigenvalue when the minimum is negative, and none is
    the identity.
    """
    check_mode(mode)
    values = np.asarray(values, dtype=np.float64)
    if mode == "flip":
        return np.abs(values)
    if mode == "clip":
        return np.clip(values, 0.0, None)
    if mode == "shift" and values.size and values.min() < 0:
        return values + abs(values.min())
    # none, and shift over a spectrum with no negative eigenvalue
    return values.copy()


@dataclass
class CorrectedModel:
    """Corrected kernel over landmark proximities, ready for block evaluation."""

    landmarks: np.ndarray
    cross: np.ndarray  # uncorrected N x m similarity block of the fitted rows
    w_star: np.ndarray  # m x m corrected core inverse
    mode: str
    r: np.ndarray | None  # m x k factor with r @ r.T = w_star, None if indefinite
    stats: CenteringStats | None = None  # present for dissimilarity-born models
    ill_conditioned: bool = False

    @property
    def m(self) -> int:
        return len(self.landmarks)

    @property
    def n(self) -> int:
        return self.cross.shape[0]


def build_corrected_model(
    eig: EigenModel,
    landmarks: np.ndarray,
    mode: str,
    stats: CenteringStats | None = None,
) -> CorrectedModel:
    """Assemble a corrected model from an eigendecomposition of its blocks.

    The eigenvectors factor through the cross block as ``C = cross @ T``
    (T is ``eig.row_map``), so the corrected matrix re-expressed over raw
    landmark proximities is exactly

        C A* C^T = cross @ (T A* T^T) @ cross^T,   w_star = T A* T^T.

    The same factored form gives the feature factor ``R = T sqrt(A*)`` over
    the positive corrected eigenvalues; it is None when one is below
    ``-DEFAULT_PINV_TOL * max|A*|``.  The model is flagged ill-conditioned when the
    cross block's singular values span more than ``ILL_CONDITION_LIMIT``.
    """
    a_star = correct_eigenvalues(eig.values, mode)
    w_star = eig.row_map @ (a_star[:, None] * eig.row_map.T)
    w_star = (w_star + w_star.T) / 2.0
    scale = np.abs(a_star).max() if a_star.size else 0.0
    r = None
    if not (a_star < -DEFAULT_PINV_TOL * scale).any():
        kept = a_star > DEFAULT_PINV_TOL * scale
        r = eig.row_map[:, kept] * np.sqrt(a_star[kept])
    sv = eig.cross_sv
    ill = bool(sv.size and sv[0] > ILL_CONDITION_LIMIT * sv[-1])
    return CorrectedModel(
        landmarks=np.asarray(landmarks, dtype=np.int64),
        cross=eig.cross,
        w_star=w_star,
        mode=mode,
        r=r,
        stats=stats,
        ill_conditioned=ill,
    )


def corrected_block(model: CorrectedModel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of the corrected similarity matrix at ``rows x cols``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return model.cross[rows] @ model.w_star @ model.cross[cols].T


def fit_corrected_model(
    source,
    kind: Kind | None = None,
    m: int | None = None,
    mode: str = "flip",
    seed: int = 0,
    landmarks: np.ndarray | None = None,
) -> CorrectedModel:
    """End-to-end pipeline: landmarks, factorization, centering, correction.

    ``source`` and ``kind`` go to ``nystrom_factors`` unchanged; without an
    explicit landmark list, ``m`` landmarks are drawn with ``seed``.  The
    factors are then corrected by ``fit_corrected_model_from_factors``, the
    one sequence of fit stages.  Total cost O(N m^2 + m^3).
    """
    check_mode(mode)
    if landmarks is None:
        if m is None:
            raise ValueError("pass either m or an explicit landmark list")
        landmarks = select_landmarks(as_row_oracle(source).n, m, seed)
    return fit_corrected_model_from_factors(nystrom_factors(source, landmarks, kind=kind), mode)


def fit_corrected_model_from_factors(factors: NystromFactors, mode: str) -> CorrectedModel:
    """Correct landmark factors: centering, eigendecomposition, model build.

    Squared dissimilarities are double centered first, with the factors'
    own core pseudo-inverse, and only the centered core is inverted anew;
    the centering statistics travel with the model so new dissimilarity
    rows can be extended later.  Similarities are corrected directly.

    The fit takes over ``factors.cross``: it becomes the model's ``cross``,
    and a dissimilarity block is centered where it lies, so the fit holds
    one N x m block.  The factors' core and core pseudo-inverse are never
    written.  Through the QR a dissimilarity fit holds two m x m arrays:
    the raw core's pseudo-inverse, kept by the centering statistics, and the
    centered core's.  The centered core goes once it is inverted, and the
    raw core with the raw factors unless the caller holds them.  A bad
    ``mode`` raises before the block is touched.
    """
    check_mode(mode)
    stats = None
    if factors.kind is Kind.SQUARED_DISSIMILARITY:
        landmarks = factors.landmarks
        core, cross, stats = nystrom_double_center(
            factors.cross, factors.core, core_pinv=factors.core_pinv, out=factors.cross
        )
        # drop the raw factors before the centered core is inverted; stats keeps their pinv
        del factors
        core_pinv = pinv_sym(core)
        # nystrom_eig_indefinite reads the centered core only through its pinv
        del core
        factors = NystromFactors(Kind.SIMILARITY, landmarks, cross, None, core_pinv)
    eig = nystrom_eig_indefinite(factors)
    return build_corrected_model(eig, factors.landmarks, mode, stats=stats)


# ---------------------------------------------------------------------------
# serialization: "PCM2" container
#
# magic "PCM2", flag byte (bit 0: stats present, bit 1: feature factor
# present, bit 2: ill-conditioned), mode byte (index into MODES), then
# u64 n, m, k, followed by the landmark indices (u64), cross (m*n f64: the
# m x N landmark-major rows, cross.T, which is how a fit holds the block),
# w_star (m*m f64), feature factor (m*k f64 if present) and, if stats are
# present, u64 stats_n, f64 g, s (m f64) and the dissimilarity core pinv
# (m*m f64).  All values little-endian.
# ---------------------------------------------------------------------------

_PCM_MAGIC = b"PCM2"
_PCM_HEADER = struct.Struct("<4sBBQQQ")


def save_model(model: CorrectedModel, path: str | Path) -> None:
    """Serialize a corrected model to the versioned PCM2 container.

    The cross block of a model fitted by ``fit_corrected_model`` or read by
    ``load_model`` is written as it lies.  Any other layout, such as the
    block of a model corrected from row-major factors, is copied into
    landmark-major order first: one more N x m block in time and memory on
    every save.
    """
    k = model.r.shape[1] if model.r is not None else 0
    flags = 0
    if model.stats is not None:
        flags |= 1
    if model.r is not None:
        flags |= 2
    if model.ill_conditioned:
        flags |= 4
    arrays = [(model.landmarks, "<u8"), (model.cross.T, "<f8"), (model.w_star, "<f8")]
    if model.r is not None:
        arrays.append((model.r, "<f8"))
    if model.stats is not None:
        st = model.stats
        arrays += [([st.n], "<u8"), ([st.g], "<f8"), (st.s, "<f8"), (st.core_pinv, "<f8")]
    fields = (_PCM_MAGIC, flags, MODES.index(model.mode), model.n, model.m, k)
    write_container(path, _PCM_HEADER, fields, arrays)


def load_model(path: str | Path) -> CorrectedModel:
    """Read a PCM2 model, raising ``DataError`` on any malformed file."""
    with read_container(path, _PCM_HEADER, _PCM_MAGIC) as (header, take):
        _, flags, mode_idx, n, m, k = header
        if mode_idx >= len(MODES):
            raise DataError(f"{path}: unknown mode byte {mode_idx}")
        landmarks = checked_landmarks(path, take(m, "<u8"), n)
        cross = take(n * m, "<f8").reshape(m, n).T
        w_star = take(m * m, "<f8").reshape(m, m)
        r = take(m * k, "<f8").reshape(m, k) if flags & 2 else None
        stats = None
        if flags & 1:
            stats_n = int(take(1, "<u8")[0])
            if stats_n != n:
                raise DataError(f"{path}: centering count {stats_n} differs from n={n}")
            g = float(take(1, "<f8")[0])
            s = take(m, "<f8")
            core_pinv = take(m * m, "<f8").reshape(m, m)
            stats = CenteringStats(s=s, g=g, n=stats_n, core_pinv=core_pinv)
    return CorrectedModel(
        landmarks=landmarks,
        cross=cross,
        w_star=w_star,
        mode=MODES[mode_idx],
        r=r,
        stats=stats,
        ill_conditioned=bool(flags & 4),
    )

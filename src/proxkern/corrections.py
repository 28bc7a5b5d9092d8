"""Eigenvalue corrections and the corrected kernel model.

A corrected model evaluates

    S_star[i, j] = cross[i] @ w_star @ cross[j]^T

where ``w_star`` re-expresses the corrected spectrum ``A*`` over the
landmark proximities, so new objects only need their proximities to the
landmarks.  For similarities ``cross`` holds them raw; for squared
dissimilarities it holds them column-centered, ``d - s / N``, and the
double centering's row terms and factor -0.5 live in ``w_star``.  For
clip and flip the corrected matrix is positive semi-definite and
``w_star = R R^T`` provides an explicit feature map ``F = cross @ R`` with
``F F^T = S_star``.

There is one fit path: ``fit_corrected_model`` draws the landmarks and
builds the factors, and ``fit_corrected_model_from_factors`` runs the
stages that follow (centering, eigendecomposition, model build).  The
library, the CLI, cross-validation and the scaling benchmark all call it.
Every cut of a small eigenvalue or singular value is relative, at
``DEFAULT_PINV_TOL``, and the landmark core is inverted once per fit, by
``nystrom_factors``.

``save_model`` and ``load_model`` store a model as a PCM3 file through the
container reader and writer of ``dataio``, which every binary format of
the package shares.  PCM3 stores the cross block as it lies after a fit,
landmark-major, so a save copies nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import DataError, Kind, checked_landmarks, read_container, write_container
from .eigencore import DEFAULT_PINV_TOL
from .nystrom import (
    CenteringStats,
    EigenModel,
    NystromFactors,
    as_row_oracle,
    center_dissimilarity_rows,
    centering_stats,
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
    cross: np.ndarray  # N x m landmark proximities of the fitted rows, centered if dissimilar
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

    Squared dissimilarities are double centered through the raw core: the
    cross block C becomes ``E = C - 1 s^T / N`` with its exact column sums
    s, and the double centered approximation ``E (-0.5 core_pinv) E^T`` is
    diagonalized with the factors' own core pseudo-inverse, so no core is
    inverted a second time.  The centering statistics travel with the model
    so new dissimilarity rows can be extended later.  Similarities are
    corrected directly.

    The fit takes over ``factors.cross``: it becomes the model's ``cross``,
    and a dissimilarity block is centered where it lies, so the fit holds
    one N x m block.  The factors' core and core pseudo-inverse are never
    written.  Through the QR a dissimilarity fit holds one m x m array, the
    raw core's pseudo-inverse, kept by the centering statistics; the raw
    core goes before the QR, with the raw factors unless the caller holds
    them.  A bad ``mode`` raises before the block is touched.
    """
    check_mode(mode)
    stats = None
    scale = 1.0
    if factors.kind is Kind.SQUARED_DISSIMILARITY:
        stats = centering_stats(factors.cross, factors.core_pinv)
        center_dissimilarity_rows(factors.cross, stats, out=factors.cross)
        # nystrom_eig_indefinite reads the core only through its pinv
        factors = replace(factors, core=None)
        scale = -0.5
    eig = nystrom_eig_indefinite(factors, scale)
    return build_corrected_model(eig, factors.landmarks, mode, stats=stats)


# ---------------------------------------------------------------------------
# serialization: "PCM3" container
#
# magic "PCM3", flag byte (bit 0: stats present, bit 1: feature factor
# present, bit 2: ill-conditioned), mode byte (index into MODES), then
# u64 n, m, k, followed by the landmark indices (u64), cross (m*n f64: the
# m x N landmark-major rows, cross.T, which is how a fit holds the block),
# w_star (m*m f64), feature factor (m*k f64 if present) and, if stats are
# present, u64 stats_n, f64 g, s (m f64) and the dissimilarity core pinv
# (m*m f64).  All values little-endian.  PCM2 had this layout, but its
# dissimilarity models were centered another way, so it is not read.
# ---------------------------------------------------------------------------

_PCM_MAGIC = b"PCM3"
_PCM_HEADER = struct.Struct("<4sBBQQQ")


def save_model(model: CorrectedModel, path: str | Path) -> None:
    """Serialize a corrected model to the versioned PCM3 container.

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
    """Read a PCM3 model, raising ``DataError`` on any malformed file.

    A header that no fit writes is an error: no landmarks, an unknown flag
    bit, a clip or flip model without its feature factor, or a nonzero rank
    k without one.  So is a non-finite value in ``w_star``, the feature
    factor or the centering statistics.  The N x m cross block is not
    scanned: that would be a second pass over the largest array on every
    load.
    """
    with read_container(path, _PCM_HEADER, _PCM_MAGIC) as (header, take):
        _, flags, mode_idx, n, m, k = header
        if mode_idx >= len(MODES):
            raise DataError(f"{path}: unknown mode byte {mode_idx}")
        if flags > 7:
            raise DataError(f"{path}: unknown flag bits in {flags:#04x}")
        if m == 0:
            raise DataError(f"{path}: a model needs at least one landmark")
        mode = MODES[mode_idx]
        if mode in ("clip", "flip") and not flags & 2:
            raise DataError(f"{path}: a {mode} model needs its feature factor")
        if k and not flags & 2:
            raise DataError(f"{path}: rank k={k} given without a feature factor")
        landmarks = checked_landmarks(path, take(m, "<u8"), n)
        cross = take(n * m, "<f8").reshape(m, n).T
        w_star = take(m * m, "<f8").reshape(m, m)
        r = take(m * k, "<f8").reshape(m, k) if flags & 2 else None
        small = {"w_star": w_star, "r": r}
        stats = None
        if flags & 1:
            stats_n = int(take(1, "<u8")[0])
            if stats_n != n:
                raise DataError(f"{path}: centering count {stats_n} differs from n={n}")
            g = take(1, "<f8")
            s = take(m, "<f8")
            core_pinv = take(m * m, "<f8").reshape(m, m)
            small.update(g=g, s=s, core_pinv=core_pinv)
            stats = CenteringStats(s=s, g=float(g[0]), n=stats_n, core_pinv=core_pinv)
    bad = [name for name, a in small.items() if a is not None and not np.isfinite(a).all()]
    if bad:
        raise DataError(f"{path}: non-finite values in {', '.join(bad)}")
    return CorrectedModel(
        landmarks=landmarks,
        cross=cross,
        w_star=w_star,
        mode=mode,
        r=r,
        stats=stats,
        ill_conditioned=bool(flags & 4),
    )

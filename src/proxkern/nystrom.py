"""Landmark (Nystrom) factorization of symmetric proximity matrices.

The approximation of a symmetric matrix ``K`` from ``m`` landmark columns is

    K_hat = K[:, L] @ pinv(K[L, L]) @ K[:, L].T

Everything in this module touches only the ``N x m`` cross block, never the
full matrix, which is what makes the pipelines linear in N:

* ``nystrom_factors`` builds the blocks from a matrix or a row oracle.
* ``nystrom_eig_indefinite`` (and ``nystrom_eig_psd`` for psd cores)
  computes the eigendecomposition of ``K_hat`` in O(N m^2 + m^3) from one
  row-blocked QR of the cross block and an m x m eigenproblem.
* ``nystrom_double_center`` converts approximated squared dissimilarities
  into centered similarities in O(N m + m^3), returning the centering
  statistics needed later for out-of-sample queries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataio import (
    DataError,
    Kind,
    ProximityMatrix,
    checked_kind,
    checked_landmarks,
    read_container,
    write_container,
)
from .eigencore import DEFAULT_PINV_TOL, Signature, pinv_sym, signature_of, sym_eig


class RowOracle:
    """Row access to a symmetric matrix that may never be materialized.

    Wraps either a dense array or a callable ``row(i) -> ndarray`` of length
    ``n``.  Every fetched entry is counted, so callers can assert linear
    access patterns.
    """

    def __init__(self, row_fn: Callable[[int], np.ndarray], n: int):
        self._row_fn = row_fn
        self.n = n
        self.entries_touched = 0

    @classmethod
    def from_matrix(cls, values: np.ndarray) -> "RowOracle":
        values = np.asarray(values, dtype=np.float64)
        return cls(lambda i: values[i], values.shape[0])

    def row(self, i: int) -> np.ndarray:
        r = np.asarray(self._row_fn(int(i)), dtype=np.float64)
        if r.shape != (self.n,):
            raise ValueError(f"row oracle returned shape {r.shape}, expected ({self.n},)")
        self.entries_touched += self.n
        return r


@dataclass
class NystromFactors:
    """Blocks of the landmark factorization of a symmetric source."""

    kind: Kind
    landmarks: np.ndarray  # m global indices
    cross: np.ndarray  # N x m
    core: np.ndarray  # m x m, symmetric
    core_pinv: np.ndarray  # m x m

    @property
    def n(self) -> int:
        return self.cross.shape[0]

    @property
    def m(self) -> int:
        return len(self.landmarks)


@dataclass
class EigenModel:
    """Eigendecomposition of an approximated matrix ``cross @ core_pinv @ cross.T``.

    ``values`` are the k retained eigenvalues (descending) and ``row_map``
    is the m x k map from landmark proximities to eigenvector coordinates:
    the orthonormal eigenvectors are ``vectors = cross @ row_map``, which
    also evaluates them for any object outside the fitted rows.
    ``cross_sv`` holds all singular values of the cross block, descending.
    """

    values: np.ndarray
    signature: Signature
    row_map: np.ndarray
    cross_sv: np.ndarray
    cross: np.ndarray = field(repr=False)

    @property
    def vectors(self) -> np.ndarray:
        """The N x k orthonormal eigenvectors, formed on each read."""
        return self.cross @ self.row_map


@dataclass
class CenteringStats:
    """Training-set statistics that fix the centering of new dissimilarity rows."""

    s: np.ndarray  # per-landmark column sums over the fitted rows
    g: float  # approximated grand sum
    n: int  # number of fitted rows
    core_pinv: np.ndarray = field(repr=False)  # pinv of the dissimilarity core


def select_landmarks(n: int, m: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Draw m distinct sorted indices uniformly; ``seed`` is an int or a ``Generator``."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))


def as_row_oracle(source: ProximityMatrix | np.ndarray | RowOracle) -> RowOracle:
    if isinstance(source, RowOracle):
        return source
    if isinstance(source, ProximityMatrix):
        return RowOracle.from_matrix(source.values)
    return RowOracle.from_matrix(np.asarray(source, dtype=np.float64))


def nystrom_factors(
    source: ProximityMatrix | np.ndarray | RowOracle,
    landmarks: np.ndarray,
    kind: Kind | None = None,
) -> NystromFactors:
    """Build the landmark blocks, touching only ``N * m`` source entries.

    The cross block is assembled from the m landmark rows (the source is
    symmetric, so landmark rows equal landmark columns).
    """
    if kind is None:
        kind = source.kind if isinstance(source, ProximityMatrix) else Kind.SIMILARITY
    oracle = as_row_oracle(source)
    landmarks = np.asarray(landmarks, dtype=np.int64)
    if landmarks.size == 0:
        raise ValueError("need at least one landmark")
    if landmarks.min() < 0 or landmarks.max() >= oracle.n:
        raise ValueError("landmark index out of range")
    if len(np.unique(landmarks)) != len(landmarks):
        raise ValueError("landmark indices must be distinct")
    rows = np.stack([oracle.row(i) for i in landmarks])  # m x N
    if not np.isfinite(rows).all():
        i, j = np.argwhere(~np.isfinite(rows))[0]
        raise DataError(f"non-finite entry at ({int(landmarks[i])}, {int(j)})")
    cross = rows.T.copy()
    core = cross[landmarks]
    core = (core + core.T) / 2.0
    return NystromFactors(kind, landmarks, cross, core, pinv_sym(core))


def reconstruct_block(f: NystromFactors, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of ``K_hat`` at ``rows x cols`` in O(|rows| |cols| m)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return f.cross[rows] @ f.core_pinv @ f.cross[cols].T


def nystrom_eig_psd(f: NystromFactors) -> EigenModel:
    """Eigendecomposition of a psd approximated matrix in O(N m^2 + m^3).

    Checks that the core is psd, then runs ``nystrom_eig_indefinite``.
    """
    lam = np.linalg.eigvalsh(f.core)
    if lam.size and lam.min() < -DEFAULT_PINV_TOL * np.abs(lam).max():
        raise ValueError(
            "core has negative eigenvalues; use nystrom_eig_indefinite for indefinite sources"
        )
    return nystrom_eig_indefinite(f)


def nystrom_eig_indefinite(f: NystromFactors) -> EigenModel:
    """Eigendecomposition of an arbitrary symmetric approximated matrix.

    With the thin QR ``cross = Q R`` and the SVD ``R = U S Z^T``, the
    approximation is ``K_hat = (Q U) H (Q U)^T`` for the small symmetric
    ``H = S Z^T core_pinv Z S``.  Diagonalizing ``H = V A V^T`` gives the
    eigenvalues A of ``K_hat`` and orthonormal eigenvectors
    ``Q U V = cross Z S^{-1} V``, so ``row_map = Z S^{-1} V``.  Singular
    values ``s <= DEFAULT_PINV_TOL * max(s)`` are dropped, because a centered cross
    block can be rank-deficient.  Nothing is squared, so small eigenvalues
    of either sign keep their accuracy.  The signature counts eigenvalues
    within ``DEFAULT_PINV_TOL * max|A|`` of zero, and the dropped directions, as z.
    Cost O(N m^2 + m^3).
    """
    sv, z = _cross_svd(f.cross)
    keep = sv > DEFAULT_PINV_TOL * sv[0]
    z, s = z[:, keep], sv[keep]
    zs = z * s
    v, values = sym_eig(zs.T @ f.core_pinv @ zs)
    row_map = (z / s) @ v
    p, q, _ = signature_of(values, DEFAULT_PINV_TOL)
    return EigenModel(values, Signature(p, q, f.m - p - q), row_map, sv, f.cross)


def _cross_svd(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) and right singular vectors of ``cross``.

    Only the R factor of ``cross = Q R`` is formed, as in TSQR: each block
    of ``20 m`` rows is reduced to its R, and one more QR of the stacked
    block Rs gives R.  Short blocks keep the Householder updates in cache,
    which makes a tall, narrow cross block several times faster to reduce
    than in one piece.
    """
    n, m = cross.shape
    step = 20 * m
    if n > step:
        cross = np.vstack([np.linalg.qr(cross[i : i + step], mode="r") for i in range(0, n, step)])
    r = np.linalg.qr(cross, mode="r")
    _, sv, zt = np.linalg.svd(r, full_matrices=False)
    return sv, zt.T


# factors container: magic "PNF1", kind byte, u64 n and m, landmark indices
# (u64), cross (n*m f64) and core (m*m f64), all little-endian; the core
# pseudo-inverse is recomputed on load
_PNF_MAGIC = b"PNF1"
_PNF_HEADER = struct.Struct("<4sBQQ")


def save_factors(f: NystromFactors, path) -> None:
    arrays = [(f.landmarks, "<u8"), (f.cross, "<f8"), (f.core, "<f8")]
    write_container(path, _PNF_HEADER, (_PNF_MAGIC, f.kind.value, f.n, f.m), arrays)


def load_factors(path) -> NystromFactors:
    """Read a PNF file, raising ``DataError`` on any malformed file."""
    with read_container(path, _PNF_HEADER, _PNF_MAGIC) as ((kind_byte, n, m), take):
        kind = checked_kind(path, kind_byte)
        landmarks = checked_landmarks(path, take(m, "<u8"), n)
        cross = take(n * m, "<f8").reshape(n, m)
        core = take(m * m, "<f8").reshape(m, m)
    if not (np.isfinite(cross).all() and np.isfinite(core).all()):
        raise DataError(f"{path}: non-finite value in the landmark blocks")
    return NystromFactors(kind, landmarks, cross, core, pinv_sym(core))


def nystrom_double_center(
    d_cross: np.ndarray,
    d_core: np.ndarray,
    landmarks: np.ndarray | None = None,
    core_pinv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, CenteringStats]:
    """Center approximated squared dissimilarities at linear cost.

    Implements the block form of double centering applied to the landmark
    approximation of D.  With ``s_j = sum_k d_cross[k, j]`` (exact column
    sums over the fitted rows), ``g = s @ pinv(d_core) @ s`` (approximated
    grand sum) and ``t = d_cross @ pinv(d_core) @ s`` (approximated row
    sums):

        S_core  = -0.5 * (d_core  - 1 s^T / N - s 1^T / N + g / N^2)
        S_cross = -0.5 * (d_cross - 1 s^T / N - t 1^T / N + g / N^2)

    Only the summands involving g and t differ from exact double centering;
    the cross block itself and the column-sum term are exact.  Cost is
    O(N m + m^3).  Returns the two blocks plus the statistics needed to
    center out-of-sample rows with the same fixed training quantities.
    A caller that already holds ``pinv(d_core)`` passes it as ``core_pinv``.
    """
    d_cross = np.asarray(d_cross, dtype=np.float64)
    d_core = np.asarray(d_core, dtype=np.float64)
    n, m = d_cross.shape
    if d_core.shape != (m, m):
        raise ValueError(f"core shape {d_core.shape} does not match cross width {m}")
    if landmarks is not None:
        landmarks = np.asarray(landmarks, dtype=np.int64)
        if not np.array_equal(d_cross[landmarks], d_core):
            raise ValueError("landmark rows of d_cross must equal d_core")
    if core_pinv is None:
        core_pinv = pinv_sym(d_core)
    s = d_cross.sum(axis=0)
    g = float(s @ core_pinv @ s)
    stats = CenteringStats(s=s, g=g, n=n, core_pinv=core_pinv)
    s_core = -0.5 * (d_core - s[None, :] / n - s[:, None] / n + g / n**2)
    s_core = (s_core + s_core.T) / 2.0
    s_cross = center_dissimilarity_rows(d_cross, stats)
    return s_core, s_cross, stats


def center_dissimilarity_rows(d_rows: np.ndarray, stats: CenteringStats) -> np.ndarray:
    """Center rows of squared dissimilarities to landmarks using fixed statistics.

    Applies the same formula as the cross block of ``nystrom_double_center``,
    so rows already seen at fit time reproduce their fitted values exactly.
    """
    d_rows = np.asarray(d_rows, dtype=np.float64)
    if d_rows.ndim != 2 or d_rows.shape[1] != len(stats.s):
        raise ValueError(f"expected rows of width {len(stats.s)}, got shape {d_rows.shape}")
    n = stats.n
    t = d_rows @ (stats.core_pinv @ stats.s)
    # in place, so a fit holds one centered N x m block and no temporaries
    out = d_rows - stats.s[None, :] / n
    out -= t[:, None] / n
    out += stats.g / n**2
    out *= -0.5
    return out

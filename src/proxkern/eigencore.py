"""Symmetric eigendecomposition and tolerance-controlled pseudo-inversion.

Every routine here works on dense symmetric matrices and orders eigenvalues
descending by algebraic value, so positive directions always come first.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# eigenvalues with |v| <= DEFAULT_PINV_TOL * max|v| are treated as zero when inverting;
# the fit makes every other relative cut (singular values, signature, feature factor) here too
DEFAULT_PINV_TOL = 1e-12
# the zero band for signature classification scales with the matrix dimension
SIGNATURE_TOL_PER_DIM = 1e-8


class EigenPair(NamedTuple):
    vectors: np.ndarray  # n x k, orthonormal columns
    values: np.ndarray  # length k, descending


class Signature(NamedTuple):
    p: int  # positive eigenvalues
    q: int  # negative eigenvalues
    z: int  # near-zero eigenvalues


def sym_eig(m: np.ndarray) -> EigenPair:
    """Full eigendecomposition of a symmetric matrix, values descending."""
    m = np.asarray(m, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(values)[::-1]
    return EigenPair(vectors[:, order], values[order])


def pinv_sym(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with ``|v| <= DEFAULT_PINV_TOL * max|v|`` are inverted to
    zero.  An all-zero matrix maps to the zero matrix.
    """
    vectors, values = sym_eig(m)
    scale = np.abs(values).max() if values.size else 0.0
    if scale == 0.0:
        return np.zeros_like(np.asarray(m, dtype=np.float64))
    inv = np.where(np.abs(values) > DEFAULT_PINV_TOL * scale, 1.0, 0.0)
    nonzero = values != 0
    inv[nonzero] = inv[nonzero] / values[nonzero]
    out = (vectors * inv) @ vectors.T
    return (out + out.T) / 2.0


def signature_of(values: np.ndarray, rel_tol: float | None = None) -> Signature:
    """Count positive, negative and near-zero eigenvalues.

    The zero band is ``tau = rel_tol * max|v|`` with ``rel_tol`` defaulting
    to ``1e-8 * len(values)``; tau is 0 when all values vanish.
    """
    values = np.asarray(values, dtype=np.float64)
    if rel_tol is None:
        rel_tol = SIGNATURE_TOL_PER_DIM * len(values)
    scale = np.abs(values).max() if values.size else 0.0
    tau = rel_tol * scale
    p = int((values > tau).sum())
    q = int((values < -tau).sum())
    return Signature(p, q, len(values) - p - q)

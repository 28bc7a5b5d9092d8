"""Landmark (Nystrom) factorization of symmetric proximity matrices.

The approximation of a symmetric matrix ``K`` from ``m`` landmark columns is

    K_hat = K[:, L] @ pinv(K[L, L]) @ K[:, L].T

Everything in this module touches only the ``N x m`` cross block, never the
full matrix, which is what makes the pipelines linear in N:

* ``nystrom_factors`` builds the blocks from a matrix or a row oracle.  The
  cross block is held landmark-major, as one m x N array of fetched rows;
  every caller sees it as N x m through its transpose ``cross``.  When the
  first row takes ``FETCH_SPLIT_S`` or longer and the BLAS runs on one
  thread, the others are fetched on the task threads of ``eigencore``, so a
  row oracle's ``row_fn`` may then be called from several threads at once.
* ``nystrom_eig_indefinite`` (and ``nystrom_eig_psd`` for psd cores)
  computes the eigendecomposition of ``K_hat`` in O(N m^2 + m^3) from one
  row-blocked QR of the cross block and an m x m eigenproblem.
* ``center_dissimilarity_rows`` double centers the approximation of squared
  dissimilarities through its raw core.  With the exact column sums ``s`` of
  the cross block ``C`` and ``E = C - 1 s^T / N``, the double centered
  approximation is ``-0.5 J C pinv(W) C^T J = E (-0.5 pinv(W)) E^T``: one
  subtraction per entry, and no second core to invert.  A fit and its
  out-of-sample rows go through the same routine.
* ``nystrom_double_center`` gives the centered landmark blocks of that
  approximation explicitly, in O(N m + m^3), with its row-sum and grand-sum
  terms.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import eigencore
from .dataio import DataError, Kind, ProximityMatrix
from .eigencore import DEFAULT_PINV_TOL, Signature, pinv_sym, signature_of, sym_eig

# seconds the first landmark row must take before the other rows are fetched on the task
# threads of eigencore: on 2 CPUs with one BLAS thread, split fetches of ball rows that
# took 0.1-0.33 ms ran at 0.86-1.49x of the serial time, and of rows from 0.42 ms on at
# 0.54-0.81x; a first ball row at N = 16000 takes 0.16-0.5 ms, cache-cold
FETCH_SPLIT_S = 5e-4


class RowOracle:
    """Row access to a symmetric matrix that may never be materialized.

    Wraps a callable ``row(i) -> ndarray`` of length ``n``; ``as_row_oracle``
    wraps a dense matrix this way.  Every fetched entry is counted, so
    callers can assert linear access patterns.  A non-finite entry in a
    fetched row raises ``DataError``.

    ``row_fn`` must be safe to call from several threads at once:
    ``nystrom_factors`` fetches rows that cost ``FETCH_SPLIT_S`` or more on
    the task threads of ``eigencore``.  Every oracle of the package is:
    dense slices, and ``dataio.ball_surface_row``, which allocates its
    scratch per call and backs the command line's ball oracle.
    """

    def __init__(self, row_fn: Callable[[int], np.ndarray], n: int):
        self._row_fn = row_fn
        self.n = n
        self.entries_touched = 0
        self._count_lock = threading.Lock()

    def row(self, i: int) -> np.ndarray:
        r = np.asarray(self._row_fn(int(i)), dtype=np.float64)
        if r.shape != (self.n,):
            raise ValueError(f"row oracle returned shape {r.shape}, expected ({self.n},)")
        with self._count_lock:  # rows may be fetched on several threads at once
            self.entries_touched += self.n
        if not np.isfinite(r).all():
            raise DataError(f"non-finite entry at ({int(i)}, {np.argmin(np.isfinite(r))})")
        return r


@dataclass
class NystromFactors:
    """Blocks of the landmark factorization of a symmetric source."""

    kind: Kind
    landmarks: np.ndarray  # m global indices
    cross: np.ndarray  # N x m; landmark-major (F-contiguous) from nystrom_factors
    core: np.ndarray | None  # m x m, symmetric; None where only its pinv is kept
    core_pinv: np.ndarray  # m x m

    @property
    def m(self) -> int:
        return len(self.landmarks)


@dataclass
class EigenModel:
    """Eigendecomposition of an approximation ``cross @ (scale * core_pinv) @ cross.T``.

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
    """Training-set statistics that fix the centering of new dissimilarity rows.

    Rows are centered with ``s`` and ``n`` alone; ``g`` and ``core_pinv``
    describe the approximation that the centered rows enter.
    """

    s: np.ndarray  # per-landmark column sums over the fitted rows
    g: float  # grand sum of the approximation
    n: int  # number of fitted rows
    core_pinv: np.ndarray = field(repr=False)  # pinv of the dissimilarity core


def centering_stats(d_cross: np.ndarray, core_pinv: np.ndarray) -> CenteringStats:
    """The statistics of a raw dissimilarity cross block, read before it is centered."""
    s = d_cross.sum(axis=0)
    return CenteringStats(s=s, g=float(s @ core_pinv @ s), n=d_cross.shape[0], core_pinv=core_pinv)


def select_landmarks(n: int, m: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Draw m distinct sorted indices uniformly; ``seed`` is an int or a ``Generator``."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))


def as_row_oracle(source: ProximityMatrix | np.ndarray | RowOracle) -> RowOracle:
    """Wrap ``source`` as a counted row oracle; an oracle is returned as is."""
    if isinstance(source, RowOracle):
        return source
    if isinstance(source, ProximityMatrix):
        source = source.values
    values = np.asarray(source, dtype=np.float64)
    return RowOracle(lambda i: values[i], values.shape[0])


def nystrom_factors(
    source: ProximityMatrix | np.ndarray | RowOracle,
    landmarks: np.ndarray,
    kind: Kind | None = None,
) -> NystromFactors:
    """Build the landmark blocks, touching only ``N * m`` source entries.

    The cross block is assembled from the m landmark rows (the source is
    symmetric, so landmark rows equal landmark columns): each fetched row is
    written with one contiguous write into its row of a preallocated m x N
    array.  ``cross`` is the N x m transposed (F-contiguous) view of that
    array, so no second copy of the block exists and its columns lie in
    LAPACK's order.  The returned ``cross`` and ``core`` are new arrays
    owned by the caller, never views of the source.

    The first row is fetched on the calling thread and timed; from
    ``FETCH_SPLIT_S`` on, the runner of ``eigencore`` fetches the others on
    its task threads, each into its own slot, so the blocks keep the bits
    of a serial fetch and the first bad row in landmark order is raised.
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
    m = len(landmarks)
    rows = np.empty((m, oracle.n))

    def fetch(j: int) -> float:
        """Write landmark row j into its slot; return the seconds the oracle took for it."""
        start = time.perf_counter()
        row = oracle.row(landmarks[j])
        seconds = time.perf_counter() - start
        rows[j] = row  # after the clock: a first write into the new block can cost a row's time
        return seconds

    workers = 1
    if fetch(0) >= FETCH_SPLIT_S:
        workers = eigencore._workers(m - 1, eigencore._blas_threads())
    eigencore._run_in_order(fetch, range(1, m), workers)
    cross = rows.T
    core = cross[landmarks]
    core = core + core.T
    core /= 2.0  # in place: one m x m temporary without relying on numpy's temporary elision
    return NystromFactors(kind, landmarks, cross, core, pinv_sym(core))


def reconstruct_block(f: NystromFactors, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of ``K_hat`` at ``rows x cols`` in O(|rows| |cols| m)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return f.cross[rows] @ f.core_pinv @ f.cross[cols].T


def nystrom_eig_psd(f: NystromFactors) -> EigenModel:
    """Eigendecomposition of a psd approximation in O(N m^2 + m^3).

    Checks that the core is psd, then runs ``nystrom_eig_indefinite``.
    """
    lam = np.linalg.eigvalsh(f.core)
    if lam.size and lam.min() < -DEFAULT_PINV_TOL * np.abs(lam).max():
        raise ValueError(
            "core has negative eigenvalues; use nystrom_eig_indefinite for indefinite sources"
        )
    return nystrom_eig_indefinite(f)


def nystrom_eig_indefinite(f: NystromFactors, scale: float = 1.0) -> EigenModel:
    """Eigendecomposition of an arbitrary symmetric approximation.

    The approximation is ``K_hat = cross @ (scale * core_pinv) @ cross.T``;
    a dissimilarity fit passes column-centered rows and ``scale = -0.5``.
    The scale multiplies H, so no scaled copy of ``core_pinv`` is made.
    With the thin QR ``cross = Q R`` and the SVD ``R = U S Z^T``, the
    approximation is ``K_hat = (Q U) H (Q U)^T`` for the small symmetric
    ``H = scale * S Z^T core_pinv Z S``.  Diagonalizing ``H = V A V^T`` gives the
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
    h = zs.T @ f.core_pinv @ zs
    h *= scale
    v, values = sym_eig(h)
    row_map = (z / s) @ v
    p, q, _ = signature_of(values, DEFAULT_PINV_TOL)
    return EigenModel(values, Signature(p, q, f.m - p - q), row_map, sv, f.cross)


def _cross_svd(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) and right singular vectors of ``cross``.

    Only the R factor of ``cross = Q R`` is formed, as in TSQR.  A block of
    at least ``8 m`` rows is cut into leaves of ``h = min(20 m, ceil(sqrt(N m)))``
    rows.  Each leaf's R is written into one stack with room for
    ``max(2, h // 2m)`` leaf Rs, at most 10 as h <= 20 m; when the next one
    would not fit, the stack is reduced to its own R in its first m rows and
    filling goes on below it.  One last QR of the stack gives R.
    ``np.linalg.qr`` copies its input, so the QR holds one leaf copy and the
    stack, at most half a leaf once h >= 4 m: about ``1.5 * 8 h m`` bytes, a
    quarter and an eighth of the block at N = 16 m, where a one-piece QR
    would copy the whole block.  Short leaves also keep the Householder
    updates in cache, which makes a tall, narrow block several times faster
    to reduce.  A block of fewer than ``8 m`` rows, such as a
    cross-validation fold or an m = N fit, is reduced in one piece.
    """
    n, m = cross.shape
    if n >= 8 * m:
        h = min(20 * m, math.ceil(math.sqrt(n * m)))
        # F-ordered like the block, so each QR's copy of the stack is a straight one;
        # as h^2 <= 2 n m, the slots never outnumber the ceil(n / h) >= 3 leaves
        stack = np.empty((max(2, h // (2 * m)) * m, m), order="F")
        top = 0
        for i in range(0, n, h):
            # a leaf's R has min(leaf rows, m) = min(n - i, m) rows, as h >= m
            k = min(n - i, m)
            if top + k > len(stack):
                _write_r(stack[:m], stack[:top])
                top = m
            _write_r(stack[top : top + k], cross[i : i + h])
            top += k
        cross = stack[:top]
    r = np.linalg.qr(cross, mode="r")
    _, sv, zt = np.linalg.svd(r, full_matrices=False)
    return sv, zt.T


def _write_r(out: np.ndarray, a: np.ndarray) -> None:
    """Write the R factor of ``a``, ``min(rows, cols)`` rows, into ``out``.

    The bits are those of ``np.linalg.qr(a, mode="r")``, which returns
    ``triu`` of the top rows of its factored copy of ``a``.  Here those rows
    go straight into ``out`` and its strictly lower triangle is zeroed
    there, so no triangular temporary sits beside the factored copy.
    """
    out[...] = np.linalg.qr(a, mode="raw")[0].T[: len(out)]
    np.copyto(out, 0.0, where=np.tri(*out.shape, k=-1, dtype=bool))


def nystrom_double_center(
    d_cross: np.ndarray,
    d_core: np.ndarray,
    landmarks: np.ndarray | None = None,
    core_pinv: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, CenteringStats]:
    """The landmark blocks of the double centered approximation, at linear cost.

    Implements the block form of double centering applied to the landmark
    approximation of D.  With ``s_j = sum_k d_cross[k, j]`` (exact column
    sums over the fitted rows), ``g = s @ pinv(d_core) @ s`` (grand sum
    of the approximation) and ``t = d_cross @ pinv(d_core) @ s`` (its row
    sums):

        S_core  = -0.5 * (d_core  - 1 s^T / N - s 1^T / N + g / N^2)
        S_cross = -0.5 * (d_cross - 1 s^T / N - t 1^T / N + g / N^2)

    Only the summands involving g and t differ from exact double centering;
    the cross block itself and the column-sum term are exact.  Cost is
    O(N m + m^3).  Returns the two blocks plus the statistics of the
    approximation.  The fit does not use these blocks: it centers through
    the raw core with ``center_dissimilarity_rows``, whose first pass is
    also the first step here.
    A caller that already holds ``pinv(d_core)`` passes it as ``core_pinv``.
    The inputs are left unchanged unless ``out`` is given: it receives the
    centered cross block, and passing ``d_cross`` itself centers that block
    where it lies, after s, g and t are taken from its raw values.
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
    stats = centering_stats(d_cross, core_pinv)
    s, g = stats.s, stats.g
    s_core = -0.5 * (d_core - s[None, :] / n - s[:, None] / n + g / n**2)
    s_core = (s_core + s_core.T) / 2.0
    t = d_cross @ (core_pinv @ s)
    t /= n
    s_cross = center_dissimilarity_rows(d_cross, stats, out=out)
    s_cross -= t[:, None]
    s_cross += g / n**2
    s_cross *= -0.5
    return s_core, s_cross, stats


def center_dissimilarity_rows(
    d_rows: np.ndarray, stats: CenteringStats, out: np.ndarray | None = None
) -> np.ndarray:
    """Center rows of squared dissimilarities to the landmarks as ``d - s / N``.

    This is the one centering of the model path.  A fit centers its raw
    cross block C with it into ``E = C - 1 s^T / N``, and the double
    centered approximation is ``E (-0.5 pinv(W)) E^T``, so the row sums, the
    grand sum and the factor -0.5 all go into the core, never into the rows.
    New rows centered with the fit's statistics reproduce the fitted rows'
    bits.  The result goes to a new array, or to ``out`` when given, which
    may be ``d_rows`` itself; either way it is one pass with no N x m
    temporary.
    """
    d_rows = np.asarray(d_rows, dtype=np.float64)
    if d_rows.ndim != 2 or d_rows.shape[1] != len(stats.s):
        raise ValueError(f"expected rows of width {len(stats.s)}, got shape {d_rows.shape}")
    return np.subtract(d_rows, stats.s / stats.n, out=out)

"""Fidelity metrics, a deterministic classifier, cross-validation and benchmarks."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .baselines import lmds_fit, lmds_project
from .corrections import (
    CorrectedModel,
    correct_eigenvalues,
    fit_corrected_model,
    fit_corrected_model_from_factors,
)
from .dataio import Kind, ProximityMatrix
from .eigencore import pinv_sym, sym_eig
from .nystrom import (
    NystromFactors,
    RowOracle,
    as_row_oracle,
    nystrom_factors,
    reconstruct_block,
    select_landmarks,
)
from .oos import extend_features
from .transforms import _double_center

# fidelity sampling default: full enumeration below this many points
FULL_ENUMERATION_N = 700
DEFAULT_FIDELITY_PAIRS = 200_000
# ridge default: lambda = RIDGE_LAMBDA_SCALE * trace(F^T F) / k
RIDGE_LAMBDA_SCALE = 1e-3


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-aware (average rank) Spearman rank correlation in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    if len(a) < 2:
        raise ValueError("need at least two values")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    if denom == 0.0:
        raise ValueError("rank correlation is undefined for a constant input")
    return float((ra @ rb) / denom)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """0-based ranks of ``x``, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts + 1) / 2.0)[inverse]


def proximity_fidelity(
    exact_model: CorrectedModel,
    approx_model: CorrectedModel,
    pairs: int | None = None,
    seed: int = 0,
) -> float:
    """Spearman correlation of corrected dissimilarities over sampled pairs.

    Both models must cover the same row set.  ``pairs`` random positions
    i < j are compared (all of them when the dataset is small or pairs
    exceeds the pair count); deterministic per seed.
    """
    n = exact_model.n
    if approx_model.n != n:
        raise ValueError("models cover different row sets")
    total = n * (n - 1) // 2
    if pairs is None:
        pairs = total if n <= FULL_ENUMERATION_N else min(DEFAULT_FIDELITY_PAIRS, total)
    if pairs < 2:
        raise ValueError("need at least two pairs")
    if pairs >= total:
        rows, cols = np.triu_indices(n, 1)
    else:
        rows, cols = _sample_pairs(n, pairs, seed)
    exact_vals = _pair_dissimilarities(exact_model, rows, cols)
    approx_vals = _pair_dissimilarities(approx_model, rows, cols)
    return spearman_rho(exact_vals, approx_vals)


def _sample_pairs(n: int, pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` distinct sorted pairs i < j; each batch adds new keys in draw order."""
    rng = np.random.default_rng(seed)
    taken = np.empty(0, dtype=np.int64)
    while len(taken) < pairs:
        i = rng.integers(0, n, size=2 * (pairs - len(taken)))
        j = rng.integers(0, n, size=len(i))
        keys = (np.minimum(i, j) * n + np.maximum(i, j))[i != j]
        keys = keys[~np.isin(keys, taken)]
        _, first = np.unique(keys, return_index=True)
        taken = np.concatenate([taken, keys[np.sort(first)][: pairs - len(taken)]])
    taken.sort()
    return taken // n, taken % n


def _pair_dissimilarities(model: CorrectedModel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """D* at individual (row, col) positions in O(pairs * m)."""
    wc = model.cross @ model.w_star
    diag = np.einsum("ij,ij->i", wc, model.cross)
    cross_vals = np.einsum("ij,ij->i", wc[rows], model.cross[cols])
    return diag[rows] + diag[cols] - 2.0 * cross_vals


def fit_ridge_classifier(
    features: np.ndarray, labels: np.ndarray, lam: float | None = None
) -> np.ndarray:
    """One-vs-rest regularized least squares over an explicit feature map.

    Solves ``(F^T F + lam I) w_c = F^T y_c`` with targets +-1 per class and
    returns the k x C weight matrix.  The default regularizer is
    ``1e-3 * trace(F^T F) / k``, tied to the feature scale.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != len(labels):
        raise ValueError("features must be N x k with one label per row")
    k = features.shape[1]
    if k == 0:
        raise ValueError("empty feature map; the corrected model has no usable directions")
    gram = features.T @ features
    if lam is None:
        lam = RIDGE_LAMBDA_SCALE * np.trace(gram) / k
    if lam <= 0:
        raise ValueError("lam must be positive")
    n_classes = int(labels.max()) + 1
    targets = -np.ones((len(labels), n_classes))
    targets[np.arange(len(labels)), labels] = 1.0
    return np.linalg.solve(gram + lam * np.eye(k), features.T @ targets)


def predict_classes(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Class with the largest one-vs-rest score per row."""
    return np.asarray(np.atleast_2d(features) @ weights).argmax(axis=1)


@dataclass
class CvReport:
    accuracies: np.ndarray  # one entry per repeat x fold
    mean: float
    std: float


def stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split indices into folds with per-class round-robin assignment."""
    if folds < 2:
        raise ValueError("need at least two folds")
    counts = np.bincount(labels)
    if counts.min() < 2:
        raise ValueError("every class needs at least two members for stratified folding")
    assignment = [[] for _ in range(folds)]
    for c in range(len(counts)):
        members = rng.permutation(np.where(labels == c)[0])
        for pos, idx in enumerate(members):
            assignment[pos % folds].append(int(idx))
    return [np.sort(np.array(part, dtype=np.int64)) for part in assignment]


def crossvalidate(
    matrix: ProximityMatrix,
    labels: np.ndarray,
    m: int,
    mode: str = "flip",
    lam: float | None = None,
    folds: int = 10,
    repeats: int = 10,
    seed: int = 0,
    method: str = "corrected",
) -> CvReport:
    """Repeated stratified cross-validation of the landmark pipelines.

    Each repeat draws its landmarks from the full index set with
    ``select_landmarks`` and then its folds, both from one generator.  The
    landmarks stay fixed across the folds of that repeat, so the landmark
    selection bias is averaged over repeats but never refreshed inside a
    crossvalidation.  What depends only on the landmarks is done once per
    repeat: the landmark columns are sliced, and the raw core's
    pseudo-inverse (corrected) or the landmark MDS embedding (lmds) is
    computed.  Per fold the training and held-out rows are indexed from
    those columns; the corrected model is fitted on the training rows only
    and the held-out rows enter through the out-of-sample extension.

    ``method`` selects the pipeline: "corrected" (landmark correction with
    the given mode), "lmds" (landmark MDS triangulation) or "dspace" (raw
    dissimilarities to the landmarks as features).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = matrix.n
    if len(labels) != n:
        raise ValueError("label count does not match matrix size")
    if method in ("lmds", "dspace") and matrix.kind is not Kind.SQUARED_DISSIMILARITY:
        raise ValueError(f"method {method!r} needs squared dissimilarities")
    if method not in ("corrected", "lmds", "dspace"):
        raise ValueError(f"unknown method {method!r}")
    root = np.random.SeedSequence(seed)
    accuracies = []
    for repeat_seq in root.spawn(repeats):
        rng = np.random.default_rng(repeat_seq)
        landmarks = select_landmarks(n, m, rng)
        fold_sets = stratified_folds(labels, folds, rng)
        rows = matrix.values[:, landmarks]
        core = rows[landmarks]
        if method == "corrected":
            core_pinv = pinv_sym(core)
        elif method == "lmds":
            embedding = lmds_fit(core)
        for test_idx in fold_sets:
            train_idx = np.setdiff1d(np.arange(n), test_idx)
            f_train, f_test = rows[train_idx], rows[test_idx]
            if method == "lmds":
                f_train, f_test = lmds_project(embedding, f_train), lmds_project(embedding, f_test)
            elif method == "corrected":
                factors = NystromFactors(matrix.kind, landmarks, f_train, core, core_pinv)
                # f_train is extended below, so the fit centers a copy and leaves it as it is
                model = fit_corrected_model_from_factors(factors, mode)
                f_train, f_test = extend_features(model, f_train), extend_features(model, f_test)
            weights = fit_ridge_classifier(f_train, labels[train_idx], lam)
            predicted = predict_classes(f_test, weights)
            accuracies.append(float((predicted == labels[test_idx]).mean()))
    acc = np.array(accuracies)
    return CvReport(acc, float(acc.mean()), float(acc.std()))


def convergence_probe(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid_n: int,
    m_list: Sequence[int],
    seed: int = 0,
) -> np.ndarray:
    """Max-entry landmark approximation error of a grid kernel, per m.

    The kernel is evaluated on the regular grid of ``grid_n`` midpoints of
    [0, 1].  For each m one landmark is drawn uniformly from each of m equal
    bins (a stratified draw, so landmarks stay well spread), the matrix is
    approximated from those columns and ``max |K_hat - K|`` is recorded.
    """
    m_list = list(m_list)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be strictly ascending")
    if m_list and m_list[-1] > grid_n:
        raise ValueError("more landmarks than grid points")
    grid = np.arange(grid_n)
    x = (grid + 0.5) / grid_n
    full = ProximityMatrix(Kind.SIMILARITY, kernel(x[:, None], x[None, :])).values
    rng = np.random.default_rng(seed)
    errors = np.empty(len(m_list))
    for pos, m in enumerate(m_list):
        edges = (np.arange(m + 1) * grid_n) // m
        landmarks = np.array([rng.integers(edges[i], edges[i + 1]) for i in range(m)])
        approx = reconstruct_block(nystrom_factors(full, landmarks), grid, grid)
        errors[pos] = np.abs(approx - full).max()
    return errors


@dataclass
class BenchRecord:
    n: int
    m: int
    pipeline: str  # "proposed" or "standard"
    stage_seconds: dict
    total_seconds: float
    entries_touched: int | None = None
    skipped: bool = False


def benchmark_scaling(
    factory: Callable[[int], tuple[RowOracle | ProximityMatrix | np.ndarray, Kind]],
    n_list: Sequence[int],
    m_fixed: int,
    mode: str = "flip",
    seed: int = 0,
    dense_cap: int = 8000,
) -> list[BenchRecord]:
    """Wall-clock comparison of the landmark pipeline against the dense one.

    ``factory(n)`` supplies the proximity source (ideally a row oracle, so
    the proposed pipeline never materializes the matrix) and its kind.  The
    proposed pipeline is one timed ``fit_corrected_model`` call, the same
    fit the library and the CLI run, recorded as the single stage "fit";
    the standard pipeline runs dense centering, a full eigendecomposition
    and the dense spectrum correction with reassembly, timed per stage.
    Standard runs above ``dense_cap`` are skipped and flagged.
    """
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    records = []
    for n in n_list:
        if n < m_fixed:
            raise ValueError(f"n={n} is smaller than the landmark count {m_fixed}")
        source, kind = factory(n)
        oracle = as_row_oracle(source)
        records.append(_run_proposed(oracle, kind, n, m_fixed, mode, seed))
        records.append(_run_standard(oracle, kind, n, m_fixed, mode, dense_cap))
    return records


def _run_proposed(oracle, kind, n, m, mode, seed) -> BenchRecord:
    start = oracle.entries_touched
    t0 = time.perf_counter()
    fit_corrected_model(oracle, kind=kind, m=m, mode=mode, seed=seed)
    t = time.perf_counter() - t0
    return BenchRecord(
        n=n,
        m=m,
        pipeline="proposed",
        stage_seconds={"fit": t},
        total_seconds=t,
        entries_touched=oracle.entries_touched - start,
    )


def _run_standard(oracle, kind, n, m, mode, dense_cap) -> BenchRecord:
    if n > dense_cap:
        return BenchRecord(n, m, "standard", {}, 0.0, skipped=True)
    dense = np.empty((n, n))
    for i in range(n):
        dense[i] = oracle.row(i)
    dense = (dense + dense.T) / 2.0
    stages = {}
    t0 = time.perf_counter()
    if kind is Kind.SQUARED_DISSIMILARITY:
        # the dense block is already symmetric; the timed stage is the centering alone
        sim = _double_center(dense)
    else:
        sim = dense
    stages["center"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    vectors, values = sym_eig(sim)
    stages["eig"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    corrected = correct_eigenvalues(values, mode)
    _ = (vectors * corrected) @ vectors.T
    stages["correct"] = time.perf_counter() - t0
    return BenchRecord(
        n=n, m=m, pipeline="standard", stage_seconds=stages, total_seconds=sum(stages.values())
    )


def loglog_slope(ns: Sequence[int], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    ns = np.log(np.asarray(ns, dtype=np.float64))
    times = np.log(np.asarray(times, dtype=np.float64))
    return float(np.polyfit(ns, times, 1)[0])

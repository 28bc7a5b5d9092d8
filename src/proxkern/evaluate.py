"""Fidelity metrics, a deterministic classifier, cross-validation and benchmarks."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import eigencore
from .baselines import lmds_fit, lmds_project
from .corrections import (
    CorrectedModel,
    check_mode,
    correct_eigenvalues,
    fit_corrected_model,
    fit_corrected_model_from_factors,
)
from .dataio import Kind, ProximityMatrix
from .eigencore import sym_eig
from .nystrom import (
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
    pairs = fidelity_pairs(n, pairs)
    if pairs >= n * (n - 1) // 2:
        rows, cols = np.triu_indices(n, 1)
    else:
        rows, cols = _sample_pairs(n, pairs, seed)
    exact_vals = _pair_dissimilarities(exact_model, rows, cols)
    approx_vals = _pair_dissimilarities(approx_model, rows, cols)
    return spearman_rho(exact_vals, approx_vals)


def fidelity_pairs(n: int, pairs: int | None = None) -> int:
    """The number of pairs ``proximity_fidelity`` compares on n rows.

    ``None`` means all pairs of a small dataset and ``DEFAULT_FIDELITY_PAIRS``
    otherwise.  Fewer than two pairs raise ``ValueError``, so a caller can
    check a pair count before it fits the models.
    """
    total = n * (n - 1) // 2
    if pairs is None:
        pairs = total if n <= FULL_ENUMERATION_N else min(DEFAULT_FIDELITY_PAIRS, total)
    if pairs < 2:
        raise ValueError("need at least two pairs")
    return pairs


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
    if not lam > 0:  # NaN included, which would solve to NaN weights
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
    blas_threads: int | None = None  # the BLAS's thread count at the call; None if unknown
    fold_workers: int = 1  # threads that ran each repeat's folds


def stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split indices into folds with per-class round-robin assignment."""
    if folds < 2:
        raise ValueError("need at least two folds")
    counts = np.bincount(labels)
    if counts.min() < 2:
        raise ValueError("every class needs at least two members for stratified folding")
    if folds > counts.max():
        raise ValueError(
            f"{folds} folds exceed the largest class of {counts.max()}, so a fold would be empty"
        )
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
    repeat: ``nystrom_factors``, the fit's own block builder, fetches the m
    landmark rows (N * m entries) and inverts the raw core, and the lmds and
    dspace baselines form their features for all N rows.  Per fold the
    training and held-out rows are indexed from those blocks; the corrected
    model is fitted on the training rows only and the held-out rows enter
    through the out-of-sample extension.

    With a single-threaded BLAS the folds of a repeat run on
    ``min(folds, usable CPUs)`` threads and only read the repeat's blocks,
    which are marked read-only.  Any other or an unknown BLAS thread count,
    or one worker, runs them serially on the calling thread.  The accuracies
    do not depend on the worker count.

    ``method`` selects the pipeline: "corrected" (landmark correction with
    the given mode), "lmds" (landmark MDS triangulation) or "dspace" (raw
    dissimilarities to the landmarks as features).  A bad argument, the
    corrected method's ``mode`` and ``lam`` included, raises before any row
    is fetched.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = matrix.n
    if repeats < 1:
        raise ValueError("need at least one repeat")
    if len(labels) != n:
        raise ValueError("label count does not match matrix size")
    if method in ("lmds", "dspace") and matrix.kind is not Kind.SQUARED_DISSIMILARITY:
        raise ValueError(f"method {method!r} needs squared dissimilarities")
    if method not in ("corrected", "lmds", "dspace"):
        raise ValueError(f"unknown method {method!r}")
    if method == "corrected":
        check_mode(mode)
    if lam is not None and not lam > 0:
        raise ValueError("lam must be positive")
    root = np.random.SeedSequence(seed)
    blas_threads = eigencore._blas_threads()
    workers = eigencore._workers(folds, blas_threads)
    accuracies = []
    for repeat_seq in root.spawn(repeats):
        rng = np.random.default_rng(repeat_seq)
        landmarks = select_landmarks(n, m, rng)
        fold_sets = stratified_folds(labels, folds, rng)
        factors = nystrom_factors(matrix, landmarks)
        features = factors.cross
        if method == "lmds":
            features = lmds_project(lmds_fit(factors.core), features)
        # the folds share the repeat's blocks and only read them, so a write raises
        for block in (factors.cross, factors.core, factors.core_pinv, features):
            block.setflags(write=False)
        fold = functools.partial(
            _fold_accuracy, factors=factors, features=features, labels=labels,
            mode=mode, lam=lam, method=method,
        )
        accuracies += eigencore._run_in_order(fold, fold_sets, workers)
    acc = np.array(accuracies)
    return CvReport(acc, float(acc.mean()), float(acc.std()), blas_threads, workers)


def _fold_accuracy(test_idx, factors, features, labels, mode, lam, method) -> float:
    """Accuracy on the held-out rows ``test_idx``, the repeat's other rows training the pipeline.

    Each fold indexes its own training and held-out copies of ``features``.
    """
    train_idx = np.setdiff1d(np.arange(len(labels)), test_idx)
    f_train, f_test = features[train_idx], features[test_idx]
    if method == "corrected":
        # the fold's factors share the repeat's core and its pinv, which no fit writes
        model = fit_corrected_model_from_factors(replace(factors, cross=f_train), mode)
        # extend_features raises for a mode with no feature map, so it runs first;
        # the training rows need no extension, the fit centered them in model.cross
        f_test = extend_features(model, f_test)
        f_train = model.cross @ model.r
    weights = fit_ridge_classifier(f_train, labels[train_idx], lam)
    predicted = predict_classes(f_test, weights)
    return float((predicted == labels[test_idx]).mean())


def convergence_probe(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid_n: int,
    m_list: Sequence[int],
    seed: int = 0,
) -> np.ndarray:
    """Max-entry landmark approximation error of a grid kernel, per m.

    The kernel is evaluated on the regular grid of ``grid_n`` midpoints of
    [0, 1].  For each m one landmark is drawn uniformly from each of m equal
    bins (a stratified draw, so landmarks stay well spread), the matrix's
    approximation from those columns is formed and ``max |K_hat - K|`` is recorded.
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

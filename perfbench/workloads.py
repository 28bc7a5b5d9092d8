"""Workloads of the proxkern benchmark and the pipeline that every one runs.

Each run is a closed loop with one caller.  It sets up its inputs, fits one
model under ``tracemalloc`` for the peak-memory figure, and then runs three
stages in turns for ``--seconds``, each stage getting its workload's share of
the time, with one more set-up before every round of turns:

* fit: ``fit_corrected_model`` from a row oracle, with the same landmarks
  every time;
* serve: a cycle of ``CYCLE`` query batches through ``extend_dissimilarities``
  and ``extend_features``, then one ``save_model``/``load_model`` round trip;
* cv: ``crossvalidate`` on the paper's ball data, one repeat of ten folds per
  call, cycling through ``CV_REPEATS`` repeat seeds.

Taking turns spreads every stage's samples over the whole run, so a slow
spell of the machine does not land on one stage only.  Every workload runs
all three stages, so every end-to-end metric is measured on every workload;
the sizes and the shares decide which layer does most of the work.  README.md
has the expected and measured layer shares.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from proxkern import corrections, dataio, evaluate, nystrom, oos
from proxkern.dataio import Kind

import gates
from lattice import lattice_balls, surface_rows
from spans import Tracer

MODE = "flip"
FOLDS = 10
# cv_accuracy averages the first CV_REPEATS calls, one repeat seed each
CV_REPEATS = 10
# the stages take turns this many times a run, so each stage's samples cover
# the whole run; each turn runs a stage's operations back to back, so a short
# operation rarely starts cold
ROUNDS = 8
# query rows per extend/feature batch, and batches per save/load round trip
BATCH = 64
CYCLE = 4
STAGES = ("fit", "serve", "cv")
# the sample of each stage that the tracing overhead compares
PRIMARY_SAMPLE = {"fit": "fit", "serve": "extend", "cv": "cv"}
# fitted rows whose extension is compared with corrected_block after each fit
GATE_ROWS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # fitted rows of the row oracle
    m: int  # landmarks of the fit
    split: tuple[float, float, float]  # share of --seconds for the fit, serve and cv stages
    cv_per_class: int = 300  # balls per class in the cv stage's ball_dataset: the paper's 600
    cv_m: int = 300
    queries: int = 1024  # held-out query rows, cycled through in batches

    @property
    def primary(self) -> str:
        """The stage with the largest share; its traced and untraced times give the overhead."""
        return max(zip(self.split, STAGES))[1]


# Sizes and why each workload exists are in README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("fit-wide", 16000, 1000, (0.5, 0.2, 0.3)),
        Workload("fit-tall", 256000, 50, (0.5, 0.2, 0.3)),
    ]
}


@dataclass
class Inputs:
    row_fn: Callable[[int], np.ndarray]  # rows of the fitted squared dissimilarities
    n: int
    landmarks: np.ndarray  # the landmarks fit_corrected_model draws for this seed
    queries: np.ndarray  # query rows: squared dissimilarities to the landmarks
    cv_matrix: dataio.ProximityMatrix
    cv_labels: np.ndarray


def make_inputs(w: Workload, seed: int) -> Inputs:
    cv_matrix, cv_labels = dataio.ball_dataset(w.cv_per_class, seed=seed)
    centers, radii, _ = lattice_balls(w.n + w.queries, seed)
    fit_c, fit_r = centers[: w.n], radii[: w.n]
    landmarks = nystrom.select_landmarks(w.n, w.m, seed)
    queries = surface_rows(centers, radii, np.arange(w.n, w.n + w.queries), landmarks)
    return Inputs(
        lambda i: dataio.ball_surface_row(fit_c, fit_r, i), w.n, landmarks, queries,
        cv_matrix, cv_labels,
    )


def warm_up(inputs: Inputs) -> None:
    """One small pass through every stage, so lazy set-up is not timed later."""
    matrix, labels = inputs.cv_matrix, inputs.cv_labels
    model = corrections.fit_corrected_model(matrix, m=matrix.n // 4, mode=MODE)
    oos.extend_dissimilarities(model, matrix.values[:8, model.landmarks])
    oos.extend_features(model, matrix.values[:8, model.landmarks])
    evaluate.crossvalidate(matrix, labels, m=matrix.n // 4, mode=MODE, folds=2, repeats=1)


def summary(samples: list[float]) -> dict:
    """Median and the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    if not samples:
        return {"n": 0}
    out = {"n": len(samples), "p50": statistics.median(samples)}
    for pct in (99.9, 99.0, 90.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(samples, pct))
            break
    return out


class Run:
    """One benchmark run of one workload; failures are counted, never raised."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.path = workdir / "model.pcm"
        self.tracer = Tracer()
        self.traced = False
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inputs: Inputs | None = None
        self.model = None
        self.signature = None
        self.extension_gap = 0.0  # largest relative gap seen by gates.extension
        self.extension_share = 0.0  # largest share of its round-off bound
        self.peak_bytes = 0
        self.cv_reports: list = []
        self.batch_start = 0

    # -- measurement -------------------------------------------------------

    @contextmanager
    def timed(self, name: str, hooks: bool = True):
        """Time the block into the samples; traced blocks run under the wrappers."""
        traced = self.traced
        if traced and hooks:
            self.tracer.install()
        try:
            with self.tracer.span("op." + name) if traced else nullcontext():
                start = perf_counter()
                yield
                elapsed = perf_counter() - start
        finally:
            self.tracer.uninstall()
        (self.traced_samples if traced else self.samples)[name].append(elapsed)

    def attempt(self, stage: str, op: Callable[[], None]) -> bool:
        self.attempted += 1
        try:
            op()
            return True
        except Exception as exc:  # every failure is counted and reported
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{stage}: {type(exc).__name__}: {exc}")
            return False

    def interleave(self, stages: dict[str, Callable[[], None]], spent, shares, min_ops) -> None:
        """Run the stages for ``seconds`` in ``ROUNDS`` rounds, each near its share.

        Every round starts with one set-up, so ``setup_s`` samples the whole
        run like the stages do.  Then each stage runs back-to-back operations
        until its total time is nearest to its share of the rounds so far.
        Within a stage, traced and untraced operations alternate.
        """
        for k in range(1, ROUNDS + 1):
            if "setup" in stages:
                self.step(stages, "setup", spent["setup"])
            for stage in STAGES:
                target = shares[stage] * self.seconds * k / ROUNDS
                done = spent[stage]
                while stage in stages and (
                    not done or sum(done) + statistics.median(done) / 2 < target
                ):
                    self.step(stages, stage, done)
        for stage in STAGES:
            while stage in stages and len(spent[stage]) < min_ops[stage]:
                self.step(stages, stage, spent[stage])

    def step(self, stages: dict[str, Callable[[], None]], stage: str, done: list[float]) -> None:
        """One operation of ``stage``; a stage whose operation fails is dropped."""
        self.tracer.stage = stage
        self.traced = self.trace and len(done) % 2 == 0
        if self.traced:
            self.tracer.ops[stage] += 1
        began = perf_counter()
        ok = self.attempt(stage, stages[stage])
        done.append(perf_counter() - began)
        self.traced = False
        if not ok:
            del stages[stage]

    # -- stages ------------------------------------------------------------

    def setup_once(self) -> None:
        with self.timed("setup", hooks=False):
            with self.tracer.span("dataio.gen") if self.traced else nullcontext():
                inputs = make_inputs(self.w, self.seed)
            warm_up(inputs)
        self.inputs = inputs

    def fit(self) -> tuple:
        oracle = nystrom.RowOracle(self.inputs.row_fn, self.inputs.n)
        model = corrections.fit_corrected_model(
            oracle, kind=Kind.SQUARED_DISSIMILARITY, m=self.w.m, mode=MODE, seed=self.seed
        )
        return model, oracle

    def check_fit(self, model, oracle) -> None:
        inputs = self.inputs
        gates.entries(oracle.entries_touched, inputs.n, self.w.m)
        gates.check(np.array_equal(model.landmarks, inputs.landmarks), "unexpected landmarks")
        gates.psd(model)
        self.signature = gates.indefinite(model)
        rows = np.linspace(0, inputs.n - 1, GATE_ROWS).astype(np.int64)
        d_rows = np.stack([inputs.row_fn(i)[inputs.landmarks] for i in rows])
        gap, share = gates.extension(model, rows, d_rows)
        self.extension_gap = max(self.extension_gap, gap)
        self.extension_share = max(self.extension_share, share)

    def peak_once(self) -> None:
        tracemalloc.start()
        try:
            model, oracle = self.fit()
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.check_fit(model, oracle)
        self.model = model

    def fit_once(self) -> None:
        with self.timed("fit"):
            model, oracle = self.fit()
        self.check_fit(model, oracle)
        self.model = model

    def next_batch(self) -> np.ndarray:
        queries = self.inputs.queries
        start = self.batch_start
        self.batch_start = (start + BATCH) % (len(queries) - BATCH + 1)
        return queries[start : start + BATCH]

    def serve_once(self) -> None:
        model = self.model
        gates.check(model is not None, "no fitted model to serve")
        for _ in range(CYCLE):
            q = self.next_batch()
            with self.timed("extend"):
                block = oos.extend_dissimilarities(model, q)
            gates.finite(block, (len(q), model.n), "extended block")
            with self.timed("features"):
                features = oos.extend_features(model, q)
            gates.finite(features, (len(q), model.r.shape[1]), "feature rows")
        with self.timed("save"):
            corrections.save_model(model, self.path)
        with self.timed("load"):
            loaded = corrections.load_model(self.path)
        gates.same_model(model, loaded)

    def cv_once(self) -> None:
        inputs, done = self.inputs, len(self.cv_reports)
        with self.timed("cv"):
            report = evaluate.crossvalidate(
                inputs.cv_matrix, inputs.cv_labels, m=self.w.cv_m, mode=MODE,
                folds=FOLDS, repeats=1, seed=self.seed * CV_REPEATS + done % CV_REPEATS,
            )
        first = self.cv_reports[done - CV_REPEATS] if done >= CV_REPEATS else report
        gates.same_cv(first, report, FOLDS)
        self.cv_reports.append(report)

    def run(self) -> None:
        stages = {"setup": self.setup_once}
        spent = {"setup": []}
        self.step(stages, "setup", spent["setup"])
        if self.inputs is None:
            return
        self.attempt("peak", self.peak_once)
        for stage, op in zip(STAGES, (self.fit_once, self.serve_once, self.cv_once)):
            stages[stage], spent[stage] = op, []
        min_ops = {"fit": 1, "serve": 1, "cv": CV_REPEATS}
        if self.trace:
            min_ops[self.w.primary] = max(2, min_ops[self.w.primary])
        self.interleave(stages, spent, dict(zip(STAGES, self.w.split)), min_ops)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        s, w = self.samples, self.w

        def med(name):
            return statistics.median(s[name]) if s[name] else float("nan")

        return {
            "setup_s": med("setup"),
            "fit_rows_per_s": self.inputs.n / med("fit") if self.inputs else float("nan"),
            "fit_peak_mb": self.peak_bytes / 1e6,
            "extend_rows_per_s": BATCH / med("extend"),
            "extend_batch_ms_p50": 1e3 * med("extend"),
            "feature_rows_per_s": BATCH / med("features"),
            "model_save_s": med("save"),
            "model_load_s": med("load"),
            "cv_folds_per_s": FOLDS / med("cv"),
            "cv_accuracy": (
                statistics.fmean(r.mean for r in self.cv_reports[:CV_REPEATS])
                if len(self.cv_reports) >= CV_REPEATS else float("nan")
            ),
        }

    def per_layer(self) -> dict[str, float]:
        per = self.tracer.per_op()

        def get(span, field):
            return per[span][field] if span in per else 0.0

        out = {metric: get(span, field) for metric, (span, field) in LAYER_METRICS.items()}
        size = out["corrections.model_bytes"] / 1e6
        out["corrections.save_mb_per_s"] = size / out["corrections.save_s"] if size else 0.0
        out["corrections.load_mb_per_s"] = size / out["corrections.load_s"] if size else 0.0
        name = PRIMARY_SAMPLE[self.w.primary]
        traced, plain = self.traced_samples[name], self.samples[name]
        out["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if traced and plain else float("nan")
        )
        return out

    def record(self) -> dict:
        w, inputs = self.w, self.inputs
        rec = {
            "workload": w.name,
            "seed": self.seed,
            "N": inputs.n if inputs else w.n,
            "m": w.m,
            "mode": MODE,
            "entries_touched": (inputs.n if inputs else w.n) * w.m,
            "signature": list(self.signature) if self.signature else None,
            "extension_gap": self.extension_gap,
            "extension_share": self.extension_share,
            "cv": {"balls": 2 * w.cv_per_class, "m": w.cv_m, "folds": FOLDS, "repeats": CV_REPEATS, "calls": len(self.cv_reports)},
            "failed_frac": self.failed / max(self.attempted, 1),
            "failures": self.failures,
            "samples": {name: summary(v) for name, v in sorted(self.samples.items())},
        }
        if self.trace:
            rec["traced_samples"] = {n: summary(v) for n, v in sorted(self.traced_samples.items())}
            rec["traced_ops"] = dict(self.tracer.ops)
            rec["layer_shares"] = self.tracer.shares()
            rec["absent_hooks"] = sorted(self.tracer.absent)
        return rec


# per-layer metric: (span name, field of Tracer.per_op); see README.md
LAYER_METRICS = {
    "nystrom.fetch_s": ("nystrom.fetch", "self_s"),
    "nystrom.fetch_rows": ("nystrom.fetch", "calls"),
    "nystrom.entries_touched": ("nystrom.fetch", "count"),
    "nystrom.factors_self_s": ("nystrom.factors", "self_s"),
    "nystrom.center_s": ("nystrom.center", "self_s"),
    "nystrom.eig_s": ("nystrom.eig", "self_s"),
    "eigencore.sym_eig_calls": ("eigencore.sym_eig", "calls"),
    "eigencore.sym_eig_s": ("eigencore.sym_eig", "self_s"),
    "eigencore.pinv_calls": ("eigencore.pinv", "calls"),
    "eigencore.pinv_s": ("eigencore.pinv", "self_s"),
    "corrections.build_s": ("corrections.build", "self_s"),
    "corrections.save_s": ("corrections.save", "self_s"),
    "corrections.load_s": ("corrections.load", "self_s"),
    "corrections.model_bytes": ("corrections.save", "count"),
    "oos.center_rows_s": ("oos.center_rows", "self_s"),
    "oos.extend_block_s": ("oos.extend_block", "self_s"),
    "oos.features_s": ("oos.features", "self_s"),
    "evaluate.folds": ("evaluate.fold_fit", "calls"),
    "evaluate.fold_fit_s": ("evaluate.fold_fit", "self_s"),
    "evaluate.features_s": ("evaluate.features", "self_s"),
    "evaluate.ridge_s": ("evaluate.ridge", "self_s"),
    "dataio.gen_s": ("dataio.gen", "self_s"),
}

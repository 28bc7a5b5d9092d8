"""Command-line front end wiring the library into batch pipelines.

Subcommands:

    gen ball        generate the ball benchmark dataset (PMX + labels)
    convert         dense conversion between dissimilarities and similarities
    correct         fit and serialize a corrected model (PCM file)
    extend          out-of-sample extension of a serialized model
    baseline        lmds / dspace feature generation
    eval            cv / fidelity / converge experiments (JSON out)
    bench           scaling benchmark (JSON out)

Exit codes: 0 success, 1 usage error, 2 data error.  Every JSON artifact
embeds the invoking configuration and a schema_version field; binary
artifacts get a sidecar ``<path>.json`` with the same provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import lmds_fit, lmds_project
from .corrections import ILL_CONDITION_LIMIT, MODES, fit_corrected_model, load_model, save_model
from .dataio import (
    BOX_FACTOR,
    DEFAULT_DIM,
    DEFAULT_RADIUS_A,
    DEFAULT_RADIUS_B,
    DataError,
    Kind,
    ProximityMatrix,
    ball_centers,
    ball_dataset,
    ball_surface_row,
    read_block,
    read_labels,
    read_matrix,
    write_block,
    write_labels,
    write_matrix,
)
from .evaluate import (
    benchmark_scaling,
    convergence_probe,
    crossvalidate,
    fidelity_pairs,
    proximity_fidelity,
)
from .nystrom import RowOracle, select_landmarks
from .oos import extend_dissimilarities, extend_similarities
from .transforms import double_center, sim_to_dis

SCHEMA_VERSION = 1

_KINDS = {"sim": Kind.SIMILARITY, "dis": Kind.SQUARED_DISSIMILARITY}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="proxkern", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # --in and --kind of every subcommand that reads a proximity matrix
    source = _Parser(add_help=False)
    source.add_argument("--in", dest="input", required=True)
    source.add_argument("--kind", choices=sorted(_KINDS))
    # --seed of every subcommand that draws at random, --mode of every one that corrects
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    mode = _Parser(add_help=False)
    mode.add_argument("--mode", choices=MODES, default="flip")

    gen = sub.add_parser("gen", help="generate datasets")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    ball = gen_sub.add_parser("ball", parents=[seed], help="ball surface-distance dataset")
    ball.add_argument("--n", type=int, required=True, help="samples per class")
    ball.add_argument("--dim", type=int, default=DEFAULT_DIM)
    ball.add_argument("--radius-a", type=float, default=DEFAULT_RADIUS_A)
    ball.add_argument("--radius-b", type=float, default=DEFAULT_RADIUS_B)
    ball.add_argument("--box", type=float, default=None)
    ball.add_argument("--out", required=True, help="output PMX path")
    ball.add_argument("--labels", required=True, help="output label path")

    convert = sub.add_parser("convert", parents=[source], help="dense D/S conversion")
    convert.add_argument("--to", choices=["sim", "dis"], required=True)
    convert.add_argument("--out", required=True)

    correct = sub.add_parser("correct", parents=[source, mode, seed], help="fit a corrected model")
    correct.add_argument("--m", type=int, default=None, help="landmarks (default: all rows)")
    correct.add_argument("--out", required=True, help="model file (PCM)")

    extend = sub.add_parser("extend", help="out-of-sample extension of queries of the model's kind")
    extend.add_argument("--model", required=True)
    extend.add_argument("--in", dest="input", required=True, help="t x m query block (PMB or PMX)")
    extend.add_argument("--out", required=True, help="t x N corrected block (PMB)")

    baseline = sub.add_parser("baseline", help="baseline representations")
    baseline_sub = baseline.add_subparsers(dest="baseline", required=True)
    lmds = baseline_sub.add_parser("lmds", parents=[source, seed], help="landmark MDS coordinates")
    lmds.add_argument("--m", type=int, required=True)
    lmds.add_argument("--dim", type=int, default=None)
    lmds.add_argument("--out", required=True, help="N x k coordinates (PMB, sim kind)")
    dspace = baseline_sub.add_parser(
        "dspace", parents=[source, seed], help="dissimilarity-space features"
    )
    dspace.add_argument("--m", type=int, required=True)
    dspace.add_argument("--out", required=True, help="N x m raw columns (PMB, dis kind)")

    evaluate = sub.add_parser("eval", help="experiments")
    eval_sub = evaluate.add_subparsers(dest="experiment", required=True)
    cv = eval_sub.add_parser(
        "cv", parents=[source, mode, seed], help="repeated stratified crossvalidation"
    )
    cv.add_argument("--labels", required=True)
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--method", choices=["corrected", "lmds", "dspace"], default="corrected")
    cv.add_argument("--lam", type=float, default=None)
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--repeats", type=int, default=10)
    cv.add_argument("--out", default=None, help="optional JSON report path")
    fidelity = eval_sub.add_parser(
        "fidelity", parents=[source, mode, seed], help="rank preservation vs the dense pipeline"
    )
    fidelity.add_argument("--m", type=int, required=True, action="append")
    fidelity.add_argument("--pairs", type=int, default=None)
    fidelity.add_argument("--out", default=None)
    converge = eval_sub.add_parser(
        "converge", parents=[seed], help="grid-kernel approximation error sweep"
    )
    converge.add_argument("--kernel", choices=["min", "negabs"], default="min")
    converge.add_argument("--grid", type=int, default=200)
    converge.add_argument("--m", type=int, action="append", required=True)
    converge.add_argument("--out", default=None)

    bench = sub.add_parser("bench", help="benchmarks")
    bench_sub = bench.add_subparsers(dest="benchmark", required=True)
    scaling = bench_sub.add_parser(
        "scaling", parents=[mode, seed], help="runtime scaling in the sample count"
    )
    scaling.add_argument("--n", type=int, action="append", required=True)
    scaling.add_argument("--m", type=int, default=500)
    scaling.add_argument("--dense-cap", type=int, default=8000)
    scaling.add_argument("--out", default=None)
    return parser


def _load(path: str, kind_flag: str | None) -> ProximityMatrix:
    p = Path(path)
    matrix = read_matrix(p, "csv" if p.suffix.lower() == ".csv" else "pmx", _KINDS.get(kind_flag))
    if matrix.asymmetric:
        print(
            f"warning: {p} is not symmetric; it was symmetrized as (A + A^T) / 2",
            file=sys.stderr,
        )
    return matrix


def _provenance(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if v is not None}
    return {"schema_version": SCHEMA_VERSION, "tool": f"proxkern {__version__}", "config": config}


def _emit(args: argparse.Namespace, result) -> None:
    """Print the provenance with ``result`` as JSON, and write it to ``--out`` if given."""
    payload = {**_provenance(args), "result": result}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def _sidecar(path: str, args: argparse.Namespace) -> None:
    Path(str(path) + ".json").write_text(
        json.dumps(_provenance(args), indent=2, sort_keys=True) + "\n"
    )


def _cmd_gen(args) -> int:
    matrix, labels = ball_dataset(
        args.n, args.dim, args.radius_a, args.radius_b, args.box, args.seed
    )
    write_matrix(matrix, args.out, "pmx")
    write_labels(labels, args.labels)
    _sidecar(args.out, args)
    print(f"wrote {matrix.n}x{matrix.n} squared dissimilarity matrix to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    matrix = _load(args.input, args.kind)
    if args.to == "sim":
        out = ProximityMatrix(Kind.SIMILARITY, double_center(matrix))
    else:
        if matrix.kind is not Kind.SIMILARITY:
            raise DataError("convert --to dis expects similarity input")
        out = ProximityMatrix(Kind.SQUARED_DISSIMILARITY, sim_to_dis(matrix.values))
    write_matrix(out, args.out, "pmx")
    _sidecar(args.out, args)
    return 0


def _cmd_correct(args) -> int:
    matrix = _load(args.input, args.kind)
    m = args.m if args.m is not None else matrix.n
    model = fit_corrected_model(matrix, m=m, mode=args.mode, seed=args.seed)
    save_model(model, args.out)
    _sidecar(args.out, args)
    if model.ill_conditioned:
        print(
            "warning: the landmark cross block is severely ill-conditioned "
            f"(its singular values span more than {ILL_CONDITION_LIMIT:.0e})",
            file=sys.stderr,
        )
    print(f"wrote {args.mode} model (m={m}) to {args.out}")
    return 0


def _cmd_extend(args) -> int:
    model = load_model(args.model)
    query, kind = read_block(args.input)
    # dissimilarity-born models carry centering statistics for raw dissimilarity rows
    if model.stats is not None:
        want, extend = Kind.SQUARED_DISSIMILARITY, extend_dissimilarities
    else:
        want, extend = Kind.SIMILARITY, extend_similarities
    if kind is not want:
        raise DataError(f"query block is {kind.name.lower()}, the model needs {want.name.lower()}")
    block = extend(model, query)
    write_block(block, args.out, Kind.SIMILARITY)
    _sidecar(args.out, args)
    return 0


def _cmd_baseline(args) -> int:
    matrix = _load(args.input, args.kind)
    if matrix.kind is not Kind.SQUARED_DISSIMILARITY:
        raise DataError("baselines need squared dissimilarity input")
    landmarks = select_landmarks(matrix.n, args.m, args.seed)
    features = matrix.values[:, landmarks]
    kind = Kind.SQUARED_DISSIMILARITY
    if args.baseline == "lmds":
        embedding = lmds_fit(features[landmarks], args.dim)
        features = lmds_project(embedding, features)
        kind = Kind.SIMILARITY
    write_block(features, args.out, kind)
    _sidecar(args.out, args)
    return 0


def _cmd_eval(args) -> int:
    if args.experiment == "cv":
        matrix = _load(args.input, args.kind)
        labels = read_labels(args.labels)
        report = crossvalidate(
            matrix,
            labels,
            m=args.m,
            mode=args.mode,
            lam=args.lam,
            folds=args.folds,
            repeats=args.repeats,
            seed=args.seed,
            method=args.method,
        )
        result = {
            "mean_accuracy": report.mean,
            "std_accuracy": report.std,
            "fold_accuracies": report.accuracies.tolist(),
            "blas_threads": report.blas_threads,
            "fold_workers": report.fold_workers,
        }
    elif args.experiment == "fidelity":
        matrix = _load(args.input, args.kind)
        # the pair count is checked and every landmark set drawn before the reference
        # fit, so a bad --pairs or --m fails first
        fidelity_pairs(matrix.n, args.pairs)
        drawn = [select_landmarks(matrix.n, m, args.seed) for m in args.m]
        exact = fit_corrected_model(matrix, landmarks=np.arange(matrix.n), mode=args.mode)
        result = []
        for m, landmarks in zip(args.m, drawn):
            approx = fit_corrected_model(matrix, landmarks=landmarks, mode=args.mode)
            result.append({"m": m, "rho": proximity_fidelity(exact, approx, args.pairs, args.seed)})
    else:
        kernels = {
            "min": lambda a, b: np.minimum(a, b),
            "negabs": lambda a, b: -np.abs(a - b),
        }
        errors = convergence_probe(kernels[args.kernel], args.grid, sorted(args.m), args.seed)
        result = [{"m": m, "max_error": float(e)} for m, e in zip(sorted(args.m), errors)]
    _emit(args, result)
    return 0


def _cmd_bench(args) -> int:
    if any(n % 2 for n in args.n):
        raise DataError("scaling benchmark sizes must be even (two balanced classes)")

    def factory(n):
        # box grows with n^(1/dim) to keep the packing density fixed
        box = BOX_FACTOR * (DEFAULT_RADIUS_A + DEFAULT_RADIUS_B) * (n / 600.0) ** (1 / DEFAULT_DIM)
        centers, radii, _ = ball_centers(
            n // 2, DEFAULT_DIM, DEFAULT_RADIUS_A, DEFAULT_RADIUS_B, box, args.seed
        )
        oracle = RowOracle(lambda i: ball_surface_row(centers, radii, i), n)
        return oracle, Kind.SQUARED_DISSIMILARITY

    records = benchmark_scaling(
        factory,
        sorted(args.n),
        m_fixed=args.m,
        mode=args.mode,
        seed=args.seed,
        dense_cap=args.dense_cap,
    )
    _emit(args, [dataclasses.asdict(r) for r in records])
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "convert": _cmd_convert,
    "correct": _cmd_correct,
    "extend": _cmd_extend,
    "baseline": _cmd_baseline,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError, ValueError) as exc:
        print(f"proxkern: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

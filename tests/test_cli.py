import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proxkern
from proxkern import (
    Kind,
    ProximityMatrix,
    ball_dataset,
    load_model,
    read_block,
    read_matrix,
    select_landmarks,
    write_block,
    write_labels,
    write_matrix,
)
from proxkern import cli
from proxkern.cli import _COMMANDS, _build_parser, run

from conftest import random_squared_dissimilarity


def test_gen_then_cv_smoke(tmp_path, capsys):
    pmx = tmp_path / "ball.pmx"
    lab = tmp_path / "ball.lab"
    out = tmp_path / "cv.json"
    assert run(["gen", "ball", "--n", "40", "--seed", "7", "--out", str(pmx), "--labels", str(lab)]) == 0
    assert run(
        [
            "eval", "cv",
            "--in", str(pmx),
            "--labels", str(lab),
            "--m", "10",
            "--mode", "flip",
            "--folds", "4",
            "--repeats", "2",
            "--seed", "1",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert 0.0 <= payload["result"]["mean_accuracy"] <= 1.0
    assert len(payload["result"]["fold_accuracies"]) == 8
    blas_threads, workers = payload["result"]["blas_threads"], payload["result"]["fold_workers"]
    assert blas_threads is None or blas_threads >= 1
    assert 1 <= workers <= 4
    assert workers == 1 or blas_threads == 1


@pytest.mark.parametrize(
    "flags, message",
    [(["--folds", "8"], "largest class"), (["--repeats", "0"], "at least one repeat")],
)
def test_eval_cv_rejects_folds_or_repeats_that_leave_no_accuracy(flags, message, tmp_path, capsys):
    # 5 members per class: 8 folds would leave 3 of them empty, and 0 repeats no fold at all
    matrix, labels = ball_dataset(5)
    pmx, lab = tmp_path / "ball.pmx", tmp_path / "ball.lab"
    out = tmp_path / "cv.json"
    write_matrix(matrix, pmx, "pmx")
    write_labels(labels, lab)
    argv = ["eval", "cv", "--in", str(pmx), "--labels", str(lab), "--m", "4", "--out", str(out)]
    assert run(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_convert_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    d = random_squared_dissimilarity(12, rng)
    src = tmp_path / "d.pmx"
    sim = tmp_path / "s.pmx"
    back = tmp_path / "d2.pmx"
    write_matrix(d, src, "pmx")
    assert run(["convert", "--in", str(src), "--to", "sim", "--out", str(sim)]) == 0
    assert run(["convert", "--in", str(sim), "--to", "dis", "--out", str(back)]) == 0
    restored = read_matrix(back, "pmx")
    assert restored.kind is Kind.SQUARED_DISSIMILARITY
    assert np.abs(restored.values - d.values).max() <= 1e-10


def test_correct_clip_on_psd_identity(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((15, 4))
    s = ProximityMatrix(Kind.SIMILARITY, x @ x.T)
    src = tmp_path / "s.pmx"
    model_path = tmp_path / "model.pcm"
    write_matrix(s, src, "pmx")
    assert run(["correct", "--in", str(src), "--mode", "clip", "--out", str(model_path)]) == 0
    from proxkern import corrected_block, load_model

    model = load_model(model_path)
    got = corrected_block(model, np.arange(15), np.arange(15))
    assert np.abs(got - s.values).max() <= 1e-8 * np.abs(s.values).max()


def test_extend_subcommand(tmp_path):
    rng = np.random.default_rng(2)
    d = random_squared_dissimilarity(20, rng)
    src = tmp_path / "d.pmx"
    model_path = tmp_path / "model.pcm"
    query_path = tmp_path / "query.pmb"
    out_path = tmp_path / "ext.pmb"
    write_matrix(d, src, "pmx")
    assert run(["correct", "--in", str(src), "--m", "6", "--mode", "flip", "--seed", "3", "--out", str(model_path)]) == 0
    from proxkern import extend_dissimilarities, load_model, write_block

    model = load_model(model_path)
    queries = d.values[4:7][:, model.landmarks]
    write_block(queries, query_path, Kind.SQUARED_DISSIMILARITY)
    assert run(["extend", "--model", str(model_path), "--in", str(query_path), "--out", str(out_path)]) == 0
    block, _ = read_block(out_path)
    expected = extend_dissimilarities(model, queries)
    assert np.abs(block - expected).max() <= 1e-12
    assert (tmp_path / "ext.pmb.json").exists()


def _fit_models(tmp_path):
    """A dissimilarity-born and a similarity-born model of 20 rows, with their sources."""
    d = random_squared_dissimilarity(20, np.random.default_rng(8))
    s = ProximityMatrix(Kind.SIMILARITY, -0.5 * d.values)
    models = []
    for name, matrix in (("d", d), ("s", s)):
        src, path = tmp_path / f"{name}.pmx", tmp_path / f"{name}.pcm"
        write_matrix(matrix, src, "pmx")
        assert run(["correct", "--in", str(src), "--m", "6", "--out", str(path)]) == 0
        models.append((path, matrix))
    return models


def test_extend_rejects_query_of_the_wrong_kind(tmp_path):
    out_path = tmp_path / "ext.pmb"
    for model_path, matrix in _fit_models(tmp_path):
        model = load_model(model_path)
        (other,) = set(Kind) - {matrix.kind}
        query_path = tmp_path / "query.pmb"
        write_block(matrix.values[4:7][:, model.landmarks], query_path, other)
        assert run(["extend", "--model", str(model_path), "--in", str(query_path), "--out", str(out_path)]) == 2
        assert not out_path.exists()


def test_extend_rejects_query_of_the_wrong_width(tmp_path):
    out_path = tmp_path / "ext.pmb"
    for model_path, matrix in _fit_models(tmp_path):
        query_path = tmp_path / "query.pmb"
        write_block(matrix.values[4:7, :7], query_path, matrix.kind)
        assert run(["extend", "--model", str(model_path), "--in", str(query_path), "--out", str(out_path)]) == 2
        assert not out_path.exists()


def test_extend_rejects_a_pcm2_model(tmp_path, capsys):
    # PCM2 dissimilarity models held a differently centered block and w_star, so a
    # PCM2 file is not read, even with the layout PCM3 kept
    (model_path, matrix), _ = _fit_models(tmp_path)
    raw = model_path.read_bytes()
    assert raw[:4] == b"PCM3"
    model_path.write_bytes(b"PCM2" + raw[4:])
    query_path, out_path = tmp_path / "query.pmb", tmp_path / "ext.pmb"
    write_block(matrix.values[4:7, :6], query_path, matrix.kind)
    capsys.readouterr()
    assert run(["extend", "--model", str(model_path), "--in", str(query_path), "--out", str(out_path)]) == 2
    assert "bad magic b'PCM2', expected b'PCM3'" in capsys.readouterr().err
    assert not out_path.exists()


def test_baseline_subcommands(tmp_path):
    rng = np.random.default_rng(3)
    d = random_squared_dissimilarity(15, rng)
    src = tmp_path / "d.pmx"
    write_matrix(d, src, "pmx")
    kinds = {"lmds": Kind.SIMILARITY, "dspace": Kind.SQUARED_DISSIMILARITY}
    for sub, want in kinds.items():
        out = tmp_path / f"{sub}.pmb"
        assert run(["baseline", sub, "--in", str(src), "--m", "5", "--seed", "1", "--out", str(out)]) == 0
        block, kind = read_block(out)
        assert block.shape[0] == 15
        assert kind is want
    # dspace writes the raw squared dissimilarities to the landmarks
    assert np.array_equal(block, d.values[:, select_landmarks(15, 5, 1)])


def test_asymmetric_input_is_reported(tmp_path, capsys):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 8))
    s = x @ x.T
    s[0, 1] += 0.5  # one entry off its mirror
    src = tmp_path / "s.csv"
    np.savetxt(src, s, fmt="%.17g", delimiter=",")
    model_path = tmp_path / "model.pcm"
    code = run(["correct", "--in", str(src), "--kind", "sim", "--m", "4", "--out", str(model_path)])
    assert code == 0
    assert "not symmetric" in capsys.readouterr().err
    # a symmetric input draws no warning
    np.savetxt(src, x @ x.T, fmt="%.17g", delimiter=",")
    assert run(["correct", "--in", str(src), "--kind", "sim", "--m", "4", "--out", str(model_path)]) == 0
    assert "not symmetric" not in capsys.readouterr().err


def test_eval_converge(tmp_path):
    out = tmp_path / "conv.json"
    assert run(["eval", "converge", "--kernel", "min", "--grid", "100", "--m", "5", "--m", "20", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    errs = [row["max_error"] for row in payload["result"]]
    assert len(errs) == 2


def test_eval_fidelity(tmp_path):
    rng = np.random.default_rng(4)
    d = random_squared_dissimilarity(30, rng)
    src = tmp_path / "d.pmx"
    out = tmp_path / "fid.json"
    write_matrix(d, src, "pmx")
    assert run(["eval", "fidelity", "--in", str(src), "--m", "30", "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["result"][0]["rho"] >= 0.999


def test_eval_fidelity_rejects_a_bad_m_before_any_fit(tmp_path, monkeypatch):
    src = tmp_path / "d.pmx"
    write_matrix(random_squared_dissimilarity(10, np.random.default_rng(4)), src, "pmx")
    calls = []
    monkeypatch.setattr(cli, "fit_corrected_model", lambda *args, **kwargs: calls.append(args))
    assert run(["eval", "fidelity", "--in", str(src), "--m", "5", "--m", "40"]) == 2
    assert calls == []


def test_eval_fidelity_rejects_too_few_pairs_before_any_fit(tmp_path, monkeypatch, capsys):
    src = tmp_path / "d.pmx"
    write_matrix(random_squared_dissimilarity(10, np.random.default_rng(4)), src, "pmx")
    calls = []
    monkeypatch.setattr(cli, "fit_corrected_model", lambda *args, **kwargs: calls.append(args))
    assert run(["eval", "fidelity", "--in", str(src), "--m", "5", "--pairs", "1"]) == 2
    assert calls == []
    assert "pairs" in capsys.readouterr().err


def test_bench_scaling_small(tmp_path):
    out = tmp_path / "bench.json"
    code = run(["bench", "scaling", "--n", "60", "--n", "120", "--m", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {row["pipeline"] for row in payload["result"]} == {"proposed", "standard"}


def test_bench_scaling_rejects_odd_size_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr("proxkern.cli.benchmark_scaling", lambda *args, **kwargs: calls.append(args) or [])
    assert run(["bench", "scaling", "--n", "20", "--n", "21", "--m", "5"]) == 2
    assert calls == []


def test_docstring_lists_every_subcommand():
    listing = cli.__doc__.split("Subcommands:", 1)[1].split("Exit codes:", 1)[0]
    listed = {line.split()[0] for line in listing.splitlines() if line.strip()}
    assert listed == set(_COMMANDS)


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 1
    assert run(["convert", "--in", "x.pmx", "--to", "nowhere", "--out", "y.pmx"]) == 1


def test_gen_rejects_zero_dim(tmp_path, capsys):
    out = tmp_path / "ball.pmx"
    argv = ["gen", "ball", "--n", "4", "--dim", "0", "--out", str(out), "--labels", str(tmp_path / "l")]
    assert run(argv) == 2
    assert "dim must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module", ["proxkern.cli", "proxkern"])
def test_module_entry_points_run_the_cli(module, tmp_path):
    out = tmp_path / "ball.pmx"
    argv = ["gen", "ball", "--n", "4", "--dim", "0", "--out", str(out), "--labels", str(tmp_path / "l")]
    src = Path(proxkern.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2
    assert "dim must be at least 1" in done.stderr
    assert not out.exists()


def test_missing_file_is_data_error(tmp_path):
    assert run(["convert", "--in", str(tmp_path / "nope.pmx"), "--to", "sim", "--out", str(tmp_path / "o.pmx")]) == 2


def test_directory_input_is_data_error(tmp_path):
    assert run(["convert", "--in", str(tmp_path), "--to", "sim", "--out", str(tmp_path / "o.pmx")]) == 2


def test_kind_mismatch_is_data_error(tmp_path):
    rng = np.random.default_rng(5)
    d = random_squared_dissimilarity(8, rng)
    src = tmp_path / "d.pmx"
    write_matrix(d, src, "pmx")
    # header says dissimilarity; forcing --kind sim must fail loudly
    assert run(["convert", "--in", str(src), "--kind", "sim", "--to", "dis", "--out", str(tmp_path / "o.pmx")]) == 2


def test_convert_to_sim_rejects_similarity_input(tmp_path):
    x = np.random.default_rng(9).standard_normal((8, 3))
    src = tmp_path / "s.pmx"
    out = tmp_path / "o.pmx"
    write_matrix(ProximityMatrix(Kind.SIMILARITY, x @ x.T), src, "pmx")
    assert run(["convert", "--in", str(src), "--to", "sim", "--out", str(out)]) == 2
    assert not out.exists()


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("proxkern ")]
    assert len(examples) >= 10
    parser = _build_parser()
    for argv in examples:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


def test_provenance_sidecar(tmp_path):
    pmx = tmp_path / "b.pmx"
    lab = tmp_path / "b.lab"
    assert run(["gen", "ball", "--n", "10", "--seed", "1", "--out", str(pmx), "--labels", str(lab)]) == 0
    sidecar = json.loads((tmp_path / "b.pmx.json").read_text())
    assert sidecar["schema_version"] == 1
    assert sidecar["config"]["seed"] == 1
    assert sidecar["config"]["n"] == 10


def test_gen_reproducible_with_embedded_config(tmp_path):
    first = tmp_path / "a.pmx"
    second = tmp_path / "b.pmx"
    lab = tmp_path / "l.lab"
    assert run(["gen", "ball", "--n", "12", "--seed", "9", "--out", str(first), "--labels", str(lab)]) == 0
    sidecar = json.loads((tmp_path / "a.pmx.json").read_text())
    cfg = sidecar["config"]
    assert run(
        ["gen", "ball", "--n", str(cfg["n"]), "--seed", str(cfg["seed"]), "--out", str(second), "--labels", str(lab)]
    ) == 0
    assert first.read_bytes() == second.read_bytes()

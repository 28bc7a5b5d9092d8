"""Binary containers: golden-file byte identity and corrupt-file rejection.

Each file under ``tests/data`` is the golden file of one case in ``CASES``,
written from the hand-built arrays below by the format writers as they stood
before PMX, PMB and PCM shared one container reader and writer; the PCM
files are PCM3, with the cross block's bytes in landmark-major order.
Rewriting them must give the same bytes, and reading them must give back
the same arrays.  The arrays come from ``np.arange`` and exact divisions,
never from a fit, so no BLAS routine can change a byte.  Each format reads
one version: a file with any other magic, older ones included, is rejected.
"""

import os
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from proxkern import (
    CenteringStats,
    CorrectedModel,
    DataError,
    Kind,
    ProximityMatrix,
    load_model,
    read_block,
    read_matrix,
    save_model,
    write_block,
    write_matrix,
)
from proxkern.corrections import MODES

DATA = Path(__file__).parent / "data"


def grid(rows: int, cols: int) -> np.ndarray:
    return np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) / 7.0


def symmetric(n: int) -> np.ndarray:
    a = grid(n, n)
    return a + a.T


def model(mode: str, with_stats: bool) -> CorrectedModel:
    stats = None
    if with_stats:
        stats = CenteringStats(s=grid(1, 2)[0] + 1.0, g=2.5, n=5, core_pinv=symmetric(2) / 3.0)
    return CorrectedModel(
        landmarks=np.array([0, 3]),
        cross=grid(5, 2) - 0.5,
        w_star=symmetric(2),
        mode=mode,
        r=grid(2, 1) + 1.0 if mode in ("clip", "flip") else None,
        stats=stats,
        ill_conditioned=mode == "shift",
    )


def write_pmx(matrix, path):
    write_matrix(matrix, path, "pmx")


def read_pmx(path):
    return read_matrix(path, "pmx")


def write_pmb(block, path):
    write_block(block[0], path, block[1])


# golden file name -> (object, writer, reader)
CASES = {
    "similarity.pmx": (ProximityMatrix(Kind.SIMILARITY, symmetric(4)), write_pmx, read_pmx),
    "dissimilarity.pmx": (
        ProximityMatrix(Kind.SQUARED_DISSIMILARITY, np.subtract.outer(np.arange(3.0), np.arange(3.0)) ** 2 / 3.0),
        write_pmx,
        read_pmx,
    ),
    "block.pmb": ((grid(3, 5), Kind.SQUARED_DISSIMILARITY), write_pmb, read_block),
}
for _mode in MODES:
    CASES[f"{_mode}.pcm"] = (model(_mode, False), save_model, load_model)
    CASES[f"{_mode}-stats.pcm"] = (model(_mode, True), save_model, load_model)


def assert_same(got, want):
    if is_dataclass(want):
        assert type(got) is type(want)
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


def test_every_golden_file_has_a_case():
    files = {str(path.relative_to(DATA)) for path in DATA.rglob("*") if path.is_file()}
    assert files == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes_and_arrays(name, tmp_path):
    obj, write, read = CASES[name]
    path = tmp_path / name
    write(obj, path)
    assert path.read_bytes() == (DATA / name).read_bytes()
    assert_same(read(DATA / name), obj)


@pytest.mark.parametrize("name", sorted(CASES))
def test_writing_over_a_longer_file_leaves_only_its_bytes(name, tmp_path):
    obj, write, _ = CASES[name]
    path = tmp_path / name
    path.write_bytes(b"\xff" * 4096)  # the writer overwrites in place, then cuts the rest
    write(obj, path)
    assert path.read_bytes() == (DATA / name).read_bytes()


def test_a_failed_write_over_a_file_leaves_one_the_reader_rejects(tmp_path):
    path = tmp_path / "flip-stats.pcm"
    path.write_bytes((DATA / "flip-stats.pcm").read_bytes())
    broken = replace(CASES["flip-stats.pcm"][0], w_star=np.full((2, 2), "x"))
    with pytest.raises(ValueError):
        save_model(broken, path)  # fails after the cross block, over a file of the same size
    with pytest.raises(DataError):
        load_model(path)


def test_writing_to_a_device_leaves_it_uncut():
    obj, write, _ = CASES["flip-stats.pcm"]
    write(obj, os.devnull)


# the kind byte follows the 4-byte magic
KIND_OFFSET = 4
# a PCM has a flag byte where the others have a kind byte, and its mode byte after it;
# flip-stats.pcm stores its 2 landmarks right after its 30-byte header, then a 5 x 2
# cross block, a 2 x 2 w_star, a 2 x 1 feature factor, the centering count, g, s (2)
# and a 2 x 2 core pinv
PCM_MODE_OFFSET = 5
# the header's u64 m and k
PCM_M_OFFSET = 14
PCM_K_OFFSET = 22
PCM_LANDMARKS = 30
PCM_CROSS = PCM_LANDMARKS + 2 * 8
PCM_W_STAR = PCM_CROSS + 5 * 2 * 8
PCM_R = PCM_W_STAR + 2 * 2 * 8
PCM_STATS_N = PCM_R + 2 * 1 * 8
PCM_G = PCM_STATS_N + 8
PCM_S = PCM_G + 8
PCM_CORE_PINV = PCM_S + 2 * 8


def pcm1_bytes(raw: bytes) -> bytes:
    """The retired PCM1 file of flip-stats.pcm's model: magic PCM1, cross block row-major."""
    cross = np.frombuffer(raw, "<f8", 2 * 5, PCM_CROSS).reshape(2, 5)
    return b"PCM1" + raw[4:PCM_CROSS] + cross.T.tobytes() + raw[PCM_CROSS + 5 * 2 * 8 :]


@pytest.mark.parametrize(
    "name",
    ["dissimilarity.pmx", "block.pmb", "flip-stats.pcm", "pcm1/flip-stats.pcm"],
)
def test_corrupt_files_raise_data_error(name, tmp_path):
    golden = Path(name).name
    read = CASES[golden][2]
    raw = (DATA / golden).read_bytes()
    whole = name.startswith("pcm1/")  # a PCM1 file is no longer read, even whole
    if whole:
        raw = pcm1_bytes(raw)
    bad = [raw[:cut] for cut in range(len(raw) + whole)] + [raw + b"\0"]
    tag = bytearray(raw)
    tag[PCM_MODE_OFFSET if name.endswith(".pcm") else KIND_OFFSET] = 7
    bad.append(bytes(tag))
    if name.endswith(".pcm"):
        # a version this reader does not know, PCM2, whose layout PCM3 kept, and the
        # retired row-major PCM1, whose block has the same byte count: only the magic
        # tells them apart
        bad += [b"PCM4" + raw[4:], b"PCM2" + raw[4:], b"PCM1" + raw[4:]]
        assert raw[PCM_STATS_N : PCM_STATS_N + 8] == (5).to_bytes(8, "little")
        for count in (0, 6):  # a centering count that is not the header's n
            corrupt = bytearray(raw)
            corrupt[PCM_STATS_N : PCM_STATS_N + 8] = count.to_bytes(8, "little")
            bad.append(bytes(corrupt))
        repeated = raw[PCM_LANDMARKS + 8 : PCM_LANDMARKS + 16]
        for landmark in ((10**6).to_bytes(8, "little"), repeated):  # out of range, repeated
            corrupt = bytearray(raw)
            corrupt[PCM_LANDMARKS : PCM_LANDMARKS + 8] = landmark
            bad.append(bytes(corrupt))
        # whole files that no fit writes: an unknown flag bit, a flip model without its
        # feature factor, and a model without landmarks (a none model's header alone)
        corrupt = bytearray(raw)
        corrupt[KIND_OFFSET] |= 8
        bad.append(bytes(corrupt))
        corrupt = bytearray(raw[:PCM_R] + raw[PCM_STATS_N:])
        corrupt[KIND_OFFSET] &= ~2
        corrupt[PCM_K_OFFSET : PCM_K_OFFSET + 8] = bytes(8)
        bad.append(bytes(corrupt))
        corrupt = bytearray(raw[:PCM_LANDMARKS])
        corrupt[KIND_OFFSET] = 0
        corrupt[PCM_MODE_OFFSET] = MODES.index("none")
        corrupt[PCM_M_OFFSET : PCM_K_OFFSET + 8] = bytes(16)
        bad.append(bytes(corrupt))
    path = tmp_path / golden
    for blob in bad:
        path.write_bytes(blob)
        with pytest.raises(DataError):
            read(path)


@pytest.mark.parametrize("magic", [b"PCM1", b"PCM2", b"PCM4"])
def test_other_model_versions_are_bad_magic(magic, tmp_path):
    # PCM2 has PCM3's layout, but its dissimilarity models hold another centering of
    # the cross block and a w_star over it, so reading one would extend wrongly
    raw = (DATA / "flip-stats.pcm").read_bytes()
    path = tmp_path / "model.pcm"
    path.write_bytes(magic + raw[4:])
    with pytest.raises(DataError, match=f"bad magic b'{magic.decode()}'"):
        load_model(path)


@pytest.mark.parametrize(
    "field, offset",
    [("w_star", PCM_W_STAR + 8), ("r", PCM_R), ("g", PCM_G), ("s", PCM_S + 8),
     ("core_pinv", PCM_CORE_PINV + 24)],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_small_arrays_raise_data_error(field, offset, value, tmp_path):
    raw = bytearray((DATA / "flip-stats.pcm").read_bytes())
    assert len(raw) == PCM_CORE_PINV + 2 * 2 * 8
    raw[offset : offset + 8] = np.float64(value).tobytes()
    path = tmp_path / "flip-stats.pcm"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"non-finite values in {field}$"):
        load_model(path)

"""Reading, writing and generating proximity matrices.

Every binary format of the package is one container layout: a 4-byte
magic, a fixed little-endian header, then the arrays back to back in
little-endian order, with no trailing bytes.  ``write_container`` and
``read_container`` are the only code that packs or parses it; the readers
check every size against the file length before they allocate, read the
arrays in place and raise ``DataError`` on any malformed file.  The formats
kept here are:

PMX (binary)
    magic ``b"PMX1"``, one kind byte (0 = similarity, 1 = squared
    dissimilarity), an unsigned 64-bit count ``n``, followed by ``n*n``
    float64 values in row-major order.  The format is bit-exact: a
    write/read round trip reproduces the array exactly.

PMB (binary)
    magic ``b"PMB1"``, one kind byte and two u64 dimensions ``rows, cols``,
    followed by ``rows*cols`` float64 values: query and result blocks.

CSV (text)
    plain comma-separated values with ``.`` as decimal separator, one matrix
    row per line, no header.  Values are emitted with 17 significant digits,
    so a round trip is exact to within 1e-15 relative.  CSV carries no kind
    flag; the caller must supply it.

Label files hold one integer class id per line.  Class ids are normalized
to the contiguous range ``0..C-1`` on load.
"""

from __future__ import annotations

import enum
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_PMX_MAGIC = b"PMX1"
_PMX_HEADER = struct.Struct("<4sBQ")
# rectangular sibling of PMX for query/result blocks (rows x cols payload)
_PMB_MAGIC = b"PMB1"
_PMB_HEADER = struct.Struct("<4sBQQ")

# relative asymmetry above this triggers the symmetrization warning flag
_ASYM_WARN = 1e-9
# relative slack for "zero" diagonal entries of squared dissimilarities
_DIAG_TOL = 1e-12


class DataError(Exception):
    """Raised for malformed files or matrices that violate format invariants."""


class Kind(enum.Enum):
    SIMILARITY = 0
    SQUARED_DISSIMILARITY = 1


@dataclass
class ProximityMatrix:
    """A dense symmetric proximity matrix tagged with its interpretation.

    ``values`` is an ``n x n`` float64 array, checked to be finite and then
    symmetrized as ``(a + a.T) / 2``; exactly symmetric input is kept as
    given.  ``asymmetric`` is set when the input's maximum asymmetry exceeds
    ``1e-9 * max|value|``.  For squared dissimilarities the diagonal is zero
    and all entries are nonnegative.
    """

    kind: Kind
    values: np.ndarray
    asymmetric: bool = field(init=False, default=False)

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError(f"matrix must be square, got shape {a.shape}")
        _check_finite(a)
        # compared bit for bit, so -0.0 facing 0.0 is still averaged to 0.0
        if not np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
            scale = max(a.max(), -a.min())
            self.asymmetric = bool(np.abs(a - a.T).max() > _ASYM_WARN * scale)
            a = (a + a.T) / 2.0
        self.values = a
        if self.kind is Kind.SQUARED_DISSIMILARITY and a.size:
            diag = np.abs(np.diag(a))
            if diag.max() > _DIAG_TOL * max(a.max(), -a.min(), 1.0):
                i = int(diag.argmax())
                raise DataError(
                    f"squared dissimilarity matrix has nonzero diagonal at ({i}, {i}): "
                    f"{a[i, i]}"
                )
            if a.min() < 0:
                i, j = np.unravel_index(int(a.argmin()), a.shape)
                raise DataError(
                    f"squared dissimilarity matrix has negative entry at ({i}, {j}): "
                    f"{a[i, j]}"
                )

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _check_finite(a: np.ndarray) -> None:
    bad = ~np.isfinite(a)
    if bad.any():
        idx = np.argwhere(bad)[0]
        coord = tuple(int(x) for x in idx)
        raise DataError(f"non-finite entry at {coord}")


def _keep_contents(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_container(path: str | Path, header: struct.Struct, fields: tuple, arrays) -> None:
    """Write ``header.pack(*fields)``, then each ``(array, dtype)`` buffer in order.

    An existing file is written over in place and then cut to the new
    length.  Truncating it to zero first, as mode ``"wb"`` does, makes ext4
    free the file's blocks, allocate them again and start writeback of the
    whole file on close: saving a 128 MB model over its previous file took
    about three times as long that way (2-vCPU VM).  A file that is not a
    regular file, such as a device, is written and never cut.
    """
    with open(path, "wb", opener=_keep_contents) as fh:
        try:
            fh.write(header.pack(*fields))
            for array, dtype in arrays:
                fh.write(np.ascontiguousarray(array, dtype=dtype))
        finally:
            # cut where the writing stopped, so a failed write leaves a short file,
            # which every reader rejects, never the old file's tail behind new bytes
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


@contextmanager
def read_container(path: str | Path, header: struct.Struct, magic: bytes):
    """Open a container and yield its header fields, magic first, and ``take``.

    The file must start with ``magic``, which names the format and its
    version; each format reads one version.  ``take(count, dtype)`` reads
    the next ``count`` items in place.  It checks their size against the
    file length before it allocates, so a corrupt header cannot ask for a
    huge array.  Bytes left over when the block ends are an error.  Every
    failure raises ``DataError``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(header.size)
        if raw[:4] != magic:
            raise DataError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
        if len(raw) < header.size:
            raise DataError(f"{path}: truncated {raw[:4].decode()} header")
        off = header.size

        def take(count: int, dtype: str) -> np.ndarray:
            nonlocal off
            width = np.dtype(dtype).itemsize * count
            if off + width > size:
                raise DataError(f"{path}: {size} bytes, expected at least {off + width}")
            out = np.empty(count, dtype=dtype)
            if fh.readinto(out) != width:
                raise DataError(f"{path}: short read at byte {off}")
            off += width
            return out

        yield header.unpack(raw), take
        if off != size:
            raise DataError(f"{path}: {size - off} trailing bytes after the payload")


def checked_landmarks(path: str | Path, landmarks: np.ndarray, n: int) -> np.ndarray:
    """Stored landmark indices as int64, which must be distinct and below ``n``."""
    if landmarks.size and (landmarks.max() >= n or len(np.unique(landmarks)) != landmarks.size):
        raise DataError(f"{path}: landmark indices must be distinct and below n={n}")
    return landmarks.astype(np.int64)


def read_matrix(path: str | Path, fmt: str = "pmx", kind: Kind | None = None) -> ProximityMatrix:
    """Read a proximity matrix from ``path``.

    ``fmt`` is ``"pmx"`` or ``"csv"``.  A PMX header carries the kind, which
    ``kind`` must match if given; for CSV, ``kind`` is required.  The values
    go through the ``ProximityMatrix`` constructor, which checks and
    symmetrizes them in one pass and flags asymmetric input.
    """
    path = Path(path)
    if fmt == "pmx":
        values, stored = _read_grid(path, _PMX_HEADER, _PMX_MAGIC)
        if kind not in (None, stored):
            raise DataError(f"{path}: kind {kind.name.lower()} contradicts the PMX header")
        return ProximityMatrix(stored, values)
    if fmt == "csv":
        if kind is None:
            raise DataError("CSV files carry no kind flag; pass kind explicitly")
        return _read_csv(path, kind)
    raise DataError(f"unknown matrix format {fmt!r}")


def write_matrix(m: ProximityMatrix, path: str | Path, fmt: str = "pmx") -> None:
    """Write ``m`` to ``path`` in the given format."""
    path = Path(path)
    if fmt == "pmx":
        write_container(path, _PMX_HEADER, (_PMX_MAGIC, m.kind.value, m.n), [(m.values, "<f8")])
    elif fmt == "csv":
        with open(path, "w") as fh:
            for row in m.values:
                fh.write(",".join("%.17g" % v for v in row))
                fh.write("\n")
    else:
        raise DataError(f"unknown matrix format {fmt!r}")


def _read_grid(path: Path, header: struct.Struct, magic: bytes) -> tuple[np.ndarray, Kind]:
    """The float64 payload of a PMX or PMB file as stored, and its kind."""
    with read_container(path, header, magic) as ((_, kind_byte, *dims), take):
        if kind_byte not in (0, 1):
            raise DataError(f"{path}: unknown kind byte {kind_byte}")
        shape = dims * 2 if len(dims) == 1 else dims
        values = take(shape[0] * shape[1], "<f8").reshape(shape)
    return values, Kind(kind_byte)


def _read_csv(path: Path, kind: Kind) -> ProximityMatrix:
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                j = next(k for k, f in enumerate(fields) if not _parses(f))
                raise DataError(f"{path}: unparseable value at ({i}, {j}): {fields[j]!r}") from None
    if not rows:
        raise DataError(f"{path}: empty CSV matrix")
    n = len(rows)
    widths = {len(r) for r in rows}
    if widths != {n}:
        bad = next(i for i, r in enumerate(rows) if len(r) != n)
        raise DataError(f"{path}: row {bad} has {len(rows[bad])} fields, expected {n}")
    return ProximityMatrix(kind, np.array(rows, dtype=np.float64))


def _parses(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def write_block(block: np.ndarray, path: str | Path, kind: Kind = Kind.SIMILARITY) -> None:
    """Write a rectangular block in the PMB format (PMX with two dimensions)."""
    block = np.atleast_2d(np.asarray(block, dtype=np.float64))
    rows, cols = block.shape
    write_container(path, _PMB_HEADER, (_PMB_MAGIC, kind.value, rows, cols), [(block, "<f8")])


def read_block(path: str | Path) -> tuple[np.ndarray, Kind]:
    """Read a rectangular PMB block, or the payload of a PMX file as stored.

    A query block is not a proximity matrix, so a square PMX payload is
    neither symmetrized nor checked as one; only finiteness is checked.
    """
    with open(path, "rb") as fh:
        square = fh.read(4) == _PMX_MAGIC
    header, magic = (_PMX_HEADER, _PMX_MAGIC) if square else (_PMB_HEADER, _PMB_MAGIC)
    block, kind = _read_grid(path, header, magic)
    _check_finite(block)
    return block, kind


def read_labels(path: str | Path) -> np.ndarray:
    """Read one integer class id per line and normalize ids to ``0..C-1``."""
    path = Path(path)
    raw = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                raw.append(int(line))
            except ValueError:
                raise DataError(f"{path}: bad label on line {i + 1}: {line!r}") from None
    labels = np.asarray(raw, dtype=np.int64)
    _, normalized = np.unique(labels, return_inverse=True)
    return normalized.astype(np.int64)


def write_labels(labels: np.ndarray, path: str | Path) -> None:
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


# Ball generator defaults.  The radius gap, box size and dimension are tuned
# together: the class signal (carried by the radius difference) must sit in
# a leading negative eigendirection of the centered similarity matrix, while
# the positive spectrum stays uninformative.  Near-equal radii bury the
# signal below the broad negative spectrum coupled to the mean radius; wide
# boxes let it leak into positive directions through the row-sum terms.
# Five dimensions keep the dense packing feasible for rejection sampling.
DEFAULT_RADIUS_A = 0.2
DEFAULT_RADIUS_B = 0.8
DEFAULT_DIM = 5
BOX_FACTOR = 6.0
_MAX_REJECTION_ATTEMPTS = 10**6
# balls per tile of ball_surface_row: 128 kB of float64 scratch, which stays in L2
_ROW_TILE = 1 << 14


def ball_centers(
    n_per_class: int,
    dim: int = DEFAULT_DIM,
    radius_a: float = DEFAULT_RADIUS_A,
    radius_b: float = DEFAULT_RADIUS_B,
    box: float | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place two classes of non-overlapping balls uniformly in ``[0, box]^dim``.

    Class 0 gets ``radius_a``, class 1 gets ``radius_b``.  A candidate
    center is rejected while it overlaps any already placed ball (center
    distance at most the radius sum).  Returns centers, radii and labels;
    deterministic for a fixed seed.
    """
    if radius_a <= 0 or radius_b <= 0:
        raise ValueError("radii must be positive")
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if box is None:
        box = BOX_FACTOR * (radius_a + radius_b)
    if not box > 0:
        raise ValueError(f"box must be positive, got {box}")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    radii = np.concatenate([np.full(n_per_class, radius_a), np.full(n_per_class, radius_b)])
    centers = np.empty((n, dim))
    placed = 0
    attempts = 0
    while placed < n:
        attempts += 1
        if attempts > _MAX_REJECTION_ATTEMPTS:
            raise ValueError(
                f"ball placement exceeded {_MAX_REJECTION_ATTEMPTS} attempts; "
                f"box={box} is too small for {n} balls"
            )
        c = rng.uniform(0.0, box, size=dim)
        if placed:
            d = np.linalg.norm(centers[:placed] - c, axis=1)
            if (d <= radii[:placed] + radii[placed]).any():
                continue
        centers[placed] = c
        placed += 1
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
    )
    return centers, radii, labels


def ball_surface_row(centers: np.ndarray, radii: np.ndarray, i: int) -> np.ndarray:
    """Row i of the squared surface distance matrix, computed on the fly.

    The row is ``(||c_j - c_i|| - r_j - r_i)**2`` with a zero at ``i``.  It
    is computed in tiles of ``_ROW_TILE`` balls, so the scratch of each
    step stays in cache.  Below 8 coordinates a tile adds the squared center
    differences one coordinate column at a time, so a row takes the
    returned N-vector and one tile of scratch, and never forms the N×dim
    difference array.  For float64 centers and radii the bits equal those
    of ``np.linalg.norm(centers - centers[i], axis=1) - radii - radii[i]``,
    squared, because every step is elementwise and numpy sums fewer than 8
    terms left to right.  From 8 terms on it sums pairwise, so there each
    tile keeps that expression.
    """
    ci = centers[i]
    n, dim = centers.shape
    d = np.empty(n)
    term = np.empty(min(n, _ROW_TILE))
    for a in range(0, n, _ROW_TILE):
        tile = d[a : a + _ROW_TILE]
        if dim >= 8:
            # only this form keeps the promised bits here; no default or benchmark has dim >= 8
            tile[:] = np.linalg.norm(centers[a : a + _ROW_TILE] - ci, axis=1)
        else:
            np.subtract(centers[a : a + _ROW_TILE, 0], ci[0], out=tile, dtype=np.float64)
            tile *= tile
            scratch = term[: len(tile)]
            for k in range(1, dim):
                np.subtract(centers[a : a + _ROW_TILE, k], ci[k], out=scratch, dtype=np.float64)
                scratch *= scratch
                tile += scratch
            np.sqrt(tile, out=tile)
        tile -= radii[a : a + _ROW_TILE]
        tile -= radii[i]
        tile *= tile
    d[i] = 0.0
    return d


def ball_dataset(
    n_per_class: int,
    dim: int = DEFAULT_DIM,
    radius_a: float = DEFAULT_RADIUS_A,
    radius_b: float = DEFAULT_RADIUS_B,
    box: float | None = None,
    seed: int = 0,
) -> tuple[ProximityMatrix, np.ndarray]:
    """Generate squared surface distances between randomly placed balls.

    The entry for balls i, j is ``(||c_i - c_j|| - r_i - r_j)**2`` with a
    zero diagonal; the overlap rejection in ``ball_centers`` keeps all
    off-diagonal entries strictly positive.  Returns the squared
    dissimilarity matrix and the 0/1 label vector.
    """
    centers, radii, labels = ball_centers(n_per_class, dim, radius_a, radius_b, box, seed)
    n = len(radii)
    values = np.empty((n, n))
    for i in range(n):
        values[i] = ball_surface_row(centers, radii, i)
    return ProximityMatrix(Kind.SQUARED_DISSIMILARITY, values), labels

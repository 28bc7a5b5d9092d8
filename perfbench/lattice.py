"""O(N) generator of non-overlapping balls for the benchmark's row oracles.

The library's ``ball_centers`` places each ball by rejection sampling against
every ball placed so far.  That is O(N^2) Python work (4 s at N=8000 and 89 s
at N=32000 on a 2-core machine), so at the benchmark's sizes (up to N=257024)
it would swamp the set-up time.  Here every ball owns one cell of a cubic
lattice and its centre is jittered only so far that the ball stays inside its
cell with ``GAP / 2`` to spare.  No two balls can overlap, every surface
distance is at least ``GAP``, and generation is vectorised O(N) work.

The radii and the dimension are the library's ball-experiment defaults, so
the squared surface distances stay indefinite after centering.
"""

from __future__ import annotations

import numpy as np

from proxkern.dataio import DEFAULT_DIM, DEFAULT_RADIUS_A, DEFAULT_RADIUS_B

# cell side: the larger ball's diameter plus room to move
CELL = 2.0
# smallest surface distance between balls in neighbouring cells
GAP = 0.05


def lattice_balls(
    n: int, seed: int, dim: int = DEFAULT_DIM
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres, radii and 0/1 labels of ``n`` non-overlapping balls.

    Half the balls (rounded down) get radius ``DEFAULT_RADIUS_A`` and label
    0, the rest ``DEFAULT_RADIUS_B`` and label 1.  Deterministic per seed.
    """
    if n < 2:
        raise ValueError("need at least two balls")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n ** (1.0 / dim)))
    while side**dim < n:
        side += 1
    cells = rng.choice(side**dim, size=n, replace=False)
    corner = np.stack(np.unravel_index(cells, (side,) * dim), axis=1) * CELL
    labels = rng.permutation(np.arange(n) >= n // 2).astype(np.int64)
    radii = np.where(labels == 0, DEFAULT_RADIUS_A, DEFAULT_RADIUS_B)
    reach = CELL / 2.0 - radii - GAP / 2.0
    jitter = rng.uniform(-1.0, 1.0, size=(n, dim)) * reach[:, None]
    return corner + CELL / 2.0 + jitter, radii, labels


def surface_rows(
    centers: np.ndarray, radii: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Squared surface distances between balls ``rows`` and balls ``cols``.

    The same formula as ``proxkern.dataio.ball_surface_row``, evaluated only
    at the requested columns; rows and columns must name distinct balls.
    """
    diff = centers[rows][:, None, :] - centers[cols][None, :, :]
    gap = np.sqrt((diff**2).sum(axis=-1)) - radii[rows][:, None] - radii[cols][None, :]
    return gap**2


"""Correctness gates applied to every timed operation's result.

Each gate raises ``GateError`` on a wrong result; the caller counts the
operation as failed and records the message.  Gates run outside the timed
regions and with the tracing wrappers removed.
"""

from __future__ import annotations

import numpy as np

from proxkern import corrections, eigencore, oos

# w_star may have round-off negatives down to this share of its largest |eigenvalue|
PSD_TOL = 1e-9
# Extension of fitted rows must match corrected_block within this share of the
# round-off bound of their common product c @ w_star @ cross.T, which is
# eps * |c| @ |w_star| @ |cross|.T.  The two sides differ only by the last bit
# of the centred row c, and an ill-conditioned w_star magnifies that bit: at
# N=16000, m=1000 the relative gap reached 1.5e-8 (seed 120, max|w_star| =
# 2.4e5, bound 3e10 times the block's scale) while using 0.4% of the bound.
OOS_BOUND_SHARE = 1.0


class GateError(Exception):
    """A timed operation returned a wrong result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def entries(touched: int, n: int, m: int) -> None:
    check(touched == n * m, f"fit touched {touched} entries, expected N*m = {n * m}")


def psd(model) -> None:
    """A flip model carries a feature factor and a psd ``w_star``."""
    check(model.r is not None, f"{model.mode} model carries no feature factor")
    values = np.linalg.eigvalsh(model.w_star)
    scale = np.abs(values).max()
    check(scale > 0, "w_star is zero")
    check(values.min() >= -PSD_TOL * scale, f"w_star eigenvalue {values.min():.3e} of max {scale:.3e}")


def indefinite(model) -> eigencore.Signature:
    """The fitted spectrum has negative directions, and the flip kept them.

    The fitted matrix is ``cross @ pinv(core) @ cross.T``; with a full-rank
    cross block it has the inertia of the centered landmark core (Sylvester's
    law), which is read off the model's own landmark rows.  Flip turns the q
    negative directions into positive columns of the feature factor, so it
    has more than p columns; a fit that dropped them, as clip does, has p.
    """
    core = model.cross[model.landmarks]
    signature = eigencore.signature_of(np.linalg.eigvalsh((core + core.T) / 2.0))
    check(signature.q > 0, f"fitted spectrum {tuple(signature)} has no negative direction")
    kept = model.r.shape[1] if model.r is not None else 0
    check(kept > signature.p, f"feature factor keeps {kept} directions of {tuple(signature)}: "
          "the negative ones were dropped")
    return signature


def extension(model, rows: np.ndarray, d_rows: np.ndarray) -> tuple[float, float]:
    """Extending fitted rows reproduces their ``corrected_block`` rows.

    Returns the relative gap and the share of the round-off bound it used,
    so runs can report how close it came.
    """
    got = oos.extend_dissimilarities(model, d_rows)
    want = corrections.corrected_block(model, rows, np.arange(model.n))
    c = model.cross[rows]
    bound = np.finfo(np.float64).eps * (np.abs(c) @ np.abs(model.w_star) @ np.abs(model.cross).T)
    gap = np.abs(got - want)
    share = float((gap / bound).max())
    relative = float(gap.max() / np.abs(want).max())
    check(share <= OOS_BOUND_SHARE,
          f"extension differs from corrected_block by {relative:.3e} relative, "
          f"{share:.3g} times the round-off bound")
    return relative, share


def finite(block: np.ndarray, shape: tuple[int, int], what: str) -> None:
    check(block.shape == shape, f"{what} has shape {block.shape}, expected {shape}")
    check(bool(np.isfinite(block).all()), f"{what} has non-finite entries")


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def same_model(saved, loaded) -> None:
    """A loaded model equals the saved one bit for bit."""
    fields = ["landmarks", "cross", "w_star", "r"]
    diff = [f for f in fields if not _same(getattr(saved, f), getattr(loaded, f))]
    if saved.mode != loaded.mode:
        diff.append("mode")
    if saved.ill_conditioned != loaded.ill_conditioned:
        diff.append("ill_conditioned")
    if (saved.stats is None) != (loaded.stats is None):
        diff.append("stats")
    elif saved.stats is not None:
        a, b = saved.stats, loaded.stats
        if not (_same(a.s, b.s) and _same(a.core_pinv, b.core_pinv)
                and _same(np.float64(a.g), np.float64(b.g)) and a.n == b.n):
            diff.append("stats")
    check(not diff, f"loaded model differs in {', '.join(diff)}")


def same_cv(first, report, expected_folds: int) -> None:
    """A CV report is complete and identical to the run's first one."""
    acc = report.accuracies
    check(len(acc) == expected_folds, f"CV returned {len(acc)} folds, expected {expected_folds}")
    check(bool(((acc >= 0) & (acc <= 1)).all()), "CV accuracy outside [0, 1]")
    check(_same(acc, first.accuracies), "CV accuracies differ between calls with one seed")

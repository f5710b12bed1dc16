"""Sound argmin/argmax abstractions over output boxes.

Used by ``Post#`` (Section 6.3 step 2-iii): given interval scores, which
advisories could the concrete argmin select? An index ``i`` is possible
unless some other index is *certainly* strictly smaller everywhere.
"""

from __future__ import annotations

import numpy as np

from ..intervals import Box


def possible_argmin(box: Box) -> list[int]:
    """Indices that could attain the (first-index tie-break) minimum.

    Sound over-approximation: ``i`` is kept iff no ``j`` beats it for
    every concrete score selection — i.e. ``lo_i <= min_j hi_j``.
    """
    lo = box.lo
    hi = box.hi
    cutoff = float(np.min(hi))
    return [i for i in range(box.dim) if lo[i] <= cutoff]


def possible_argmax(box: Box) -> list[int]:
    """Dual of :func:`possible_argmin`."""
    lo = box.lo
    hi = box.hi
    cutoff = float(np.max(lo))
    return [i for i in range(box.dim) if hi[i] >= cutoff]


def _checked_scores(lo: np.ndarray, hi: np.ndarray) -> None:
    """The checks a score :class:`Box` makes, once over a whole stack."""
    # No NaN and lo <= hi: the test Box.__init__ makes row by row.
    if not np.all(lo <= hi):
        raise ValueError("score bounds must not be NaN and need lo <= hi")


def possible_argmin_batch(lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
    """:func:`possible_argmin` of every row of ``(B, P)`` score bounds,
    as one array comparison; row ``b`` equals
    ``possible_argmin(Box(lo[b], hi[b]))``."""
    _checked_scores(lo, hi)
    keep = lo <= np.min(hi, axis=1, keepdims=True)
    return [[i for i, kept in enumerate(row) if kept] for row in keep.tolist()]


def possible_argmax_batch(lo: np.ndarray, hi: np.ndarray) -> list[list[int]]:
    """Dual of :func:`possible_argmin_batch`."""
    _checked_scores(lo, hi)
    keep = hi >= np.max(lo, axis=1, keepdims=True)
    return [[i for i, kept in enumerate(row) if kept] for row in keep.tolist()]


def certain_argmin(box: Box) -> int | None:
    """The unique certain minimizer, or None if undetermined."""
    candidates = possible_argmin(box)
    if len(candidates) == 1:
        return candidates[0]
    return None

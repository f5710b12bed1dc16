"""n-dimensional boxes (interval vectors).

A :class:`Box` is the Cartesian product of ``n`` closed intervals,
stored as two numpy arrays of endpoints for efficiency. Boxes are the
state enclosures used throughout the reachability procedure
(Definition 7 in the paper represents plant states as ``l``-boxes).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .interval import EmptyIntersectionError, Interval


class Box:
    """Cartesian product of closed intervals, endpoint arrays ``lo <= hi``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float] | np.ndarray, hi: Sequence[float] | np.ndarray) -> None:
        lo_arr = np.asarray(lo, dtype=float).copy()
        hi_arr = np.asarray(hi, dtype=float).copy()
        if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 1:
            raise ValueError("box endpoints must be 1-D arrays of equal length")
        if np.isnan(lo_arr).any() or np.isnan(hi_arr).any():
            raise ValueError("box endpoints must not be NaN")
        if (lo_arr > hi_arr).any():
            bad = int(np.argmax(lo_arr > hi_arr))
            raise ValueError(
                f"invalid box: dimension {bad} has lo={lo_arr[bad]} > hi={hi_arr[bad]}"
            )
        self.lo = lo_arr
        self.hi = hi_arr

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _trusted(lo: np.ndarray, hi: np.ndarray) -> "Box":
        """Internal: wrap already-validated endpoint arrays without the
        copy and checks of ``__init__``. Callers must guarantee 1-D
        float64 arrays with ``lo <= hi``, no NaNs, and exclusive
        ownership of both arrays.
        """
        box = Box.__new__(Box)
        # sound: ok [S004] trusted constructor: the one legal endpoint
        # write outside __init__ (callers guarantee validity)
        box.lo = lo
        # sound: ok [S004] second half of the trusted-constructor write
        box.hi = hi
        return box

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "Box":
        ivs = list(intervals)
        return Box([iv.lo for iv in ivs], [iv.hi for iv in ivs])

    @staticmethod
    def from_point(point: Sequence[float] | np.ndarray) -> "Box":
        arr = np.asarray(point, dtype=float)
        return Box(arr, arr)

    @staticmethod
    def hull_of_points(points: np.ndarray) -> "Box":
        """Smallest box containing the rows of ``points``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("expected a non-empty (k, n) array of points")
        return Box(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def __len__(self) -> int:
        return self.dim

    def __getitem__(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __iter__(self) -> Iterator[Interval]:
        for i in range(self.dim):
            yield self[i]

    def intervals(self) -> list[Interval]:
        return list(self)

    @property
    def center(self) -> np.ndarray:
        """Midpoint vector (clipped into the box for robustness)."""
        # sound: ok [S001] any vector works as a center; the clip below
        # guarantees membership, which is all callers rely on
        mid = 0.5 * (self.lo + self.hi)
        return np.clip(mid, self.lo, self.hi)

    @property
    def widths(self) -> np.ndarray:
        # sound: ok [S001] split/refinement heuristics and diagnostics only;
        # no verified bound is derived from widths
        return self.hi - self.lo

    @property
    def radii(self) -> np.ndarray:
        # sound: ok [S001] heuristic/diagnostic quantity, not a verified bound
        return 0.5 * (self.hi - self.lo)

    @property
    def max_width(self) -> float:
        return float(np.max(self.widths)) if self.dim else 0.0

    def widest_dim(self) -> int:
        """Index of the widest dimension."""
        return int(np.argmax(self.widths))

    def volume(self) -> float:
        """Product of widths (0 for degenerate boxes)."""
        return float(np.prod(self.widths))

    def log_volume(self, floor: float = 1e-300) -> float:
        """Sum of log widths; robust for high-dimensional comparisons."""
        # sound: ok [S002] comparison metric for refinement ordering only
        return float(np.sum(np.log(np.maximum(self.widths, floor))))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    # ------------------------------------------------------------------
    # Set predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float] | np.ndarray) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.lo <= p) and np.all(p <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def overlaps(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def __contains__(self, item: "Box | Sequence[float] | np.ndarray") -> bool:
        if isinstance(item, Box):
            return self.contains_box(item)
        return self.contains_point(item)

    # ------------------------------------------------------------------
    # Lattice / geometric operations
    # ------------------------------------------------------------------
    def hull(self, other: "Box") -> "Box":
        """Join: smallest box containing both (Definition 10's l-box part)."""
        self._check_dim(other)
        # min/max of two valid endpoint pairs is itself valid, so the
        # __init__ validation can be skipped.
        return Box._trusted(
            np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        )

    def intersect(self, other: "Box") -> "Box":
        self._check_dim(other)
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            raise EmptyIntersectionError(f"{self} and {other} are disjoint")
        return Box(lo, hi)

    def inflate(self, delta: float | Sequence[float]) -> "Box":
        d = np.broadcast_to(np.asarray(delta, dtype=float), self.lo.shape)
        if np.any(d < 0):
            raise ValueError("inflation margin must be non-negative")
        return Box(
            np.nextafter(self.lo - d, -np.inf), np.nextafter(self.hi + d, np.inf)
        )

    def bisect(self, dim: int) -> tuple["Box", "Box"]:
        """Split into two halves along ``dim``."""
        mid = self.center[dim]
        left_hi = self.hi.copy()
        # sound: ok [S004] writes go to private copies; the halves share the
        # exact midpoint float, so their union covers self
        left_hi[dim] = mid
        right_lo = self.lo.copy()
        # sound: ok [S004] private copy, see above
        right_lo[dim] = mid
        return Box(self.lo, left_hi), Box(right_lo, self.hi)

    def bisect_all(self, dims: Sequence[int]) -> list["Box"]:
        """Split along every dimension in ``dims``, yielding ``2**len(dims)``
        sub-boxes (the paper's split-refinement step uses this with the
        x0, y0, psi0 dimensions)."""
        pieces = [self]
        for d in dims:
            next_pieces: list[Box] = []
            for box in pieces:
                next_pieces.extend(box.bisect(d))
            pieces = next_pieces
        return pieces

    def corners(self) -> np.ndarray:
        """All ``2**dim`` corner points as a ``(2**dim, dim)`` array."""
        if self.dim > 20:
            raise ValueError("corner enumeration limited to 20 dimensions")
        cols = [(self.lo[i], self.hi[i]) for i in range(self.dim)]
        return np.array(list(itertools.product(*cols)), dtype=float)

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Uniform random points inside the box, shape ``(count, dim)``."""
        u = rng.random((count, self.dim))
        # sound: ok [S001] falsification sampling; samples are concrete
        # simulation inputs, never verified bounds
        return self.lo + u * (self.hi - self.lo)

    def center_distance_sq(self, other: "Box") -> float:
        """Squared Euclidean distance between box centers (Definition 9)."""
        self._check_dim(other)
        diff = self.center - other.center
        # Join-ordering heuristic, not a verified bound. np.sum rather
        # than np.dot (BLAS, several accumulators): below 8 dimensions
        # np.sum adds left to right, the order resize uses on its
        # Python-float centers, so both give the same floats there.
        # From 8 dimensions on np.sum adds in pairwise blocks.
        return float(np.sum(diff * diff))

    def scaled(self, scale: Sequence[float], offset: Sequence[float]) -> "Box":
        """Apply an elementwise affine map ``x -> scale * x + offset``.

        Sound for point-valued ``scale``/``offset`` via interval ops.
        """
        ivs = [
            self[i] * float(scale[i]) + float(offset[i]) for i in range(self.dim)
        ]
        return Box.from_intervals(ivs)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _check_dim(self, other: "Box") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in zip(self.lo, self.hi))
        return f"Box({parts})"


def hull_of_boxes(boxes: Iterable[Box]) -> Box:
    """Smallest box containing every box in ``boxes`` (non-empty)."""
    box_list = list(boxes)
    if not box_list:
        raise ValueError("hull_of_boxes requires at least one box")
    if len(box_list) == 1:
        return box_list[0]
    first_dim = box_list[0].dim
    for box in box_list[1:]:
        if box.dim != first_dim:
            raise ValueError(f"dimension mismatch: {first_dim} vs {box.dim}")
    # Exact min/max reduction over the stacked endpoints — identical to
    # the pairwise sequential hull, but one vectorized pass.
    lo = np.min(np.stack([b.lo for b in box_list]), axis=0)
    hi = np.max(np.stack([b.hi for b in box_list]), axis=0)
    return Box(lo, hi)

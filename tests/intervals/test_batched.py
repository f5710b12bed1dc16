"""Scalar/batched equivalence tests for the SoA interval kernels.

The batched kernels are designed to be *bitwise identical* to the
scalar ``Interval``/``functions`` path element by element (which is a
strictly stronger property than the enclosure contract the adapters
must uphold). These tests check both:

* bitwise equality on broad randomized and adversarial inputs, and
* the enclosure property itself (batched ⊇ scalar, never wider than
  the per-op ULP-nudge budget), stated independently so a future
  batched kernel that trades bitwise fidelity for speed still has the
  contract pinned down.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.intervals import Box, Interval, iatan2, icos, ihypot, isin, isqrt
from repro.intervals.batched import (
    BoxBatch,
    IntervalBatch,
    babs,
    badd,
    batan2,
    bcos,
    bdiv,
    bhull,
    bhypot,
    bintersect,
    bmul,
    bmul_bare,
    bneg,
    bpow,
    bsin,
    bsincos,
    bsqrt,
    bsub,
)

RNG = np.random.default_rng(20210614)


def random_intervals(n: int, scale: float = 10.0) -> list[Interval]:
    """Mixed-magnitude random intervals including degenerate points."""
    out: list[Interval] = []
    for _ in range(n):
        kind = RNG.integers(0, 5)
        if kind == 0:  # degenerate point
            x = float(RNG.normal(scale=scale))
            out.append(Interval(x, x))
        elif kind == 1:  # tiny width
            x = float(RNG.normal(scale=scale))
            out.append(Interval(x, x + abs(float(RNG.normal(scale=1e-12)))))
        elif kind == 2:  # spans zero
            w = abs(float(RNG.normal(scale=scale)))
            out.append(Interval(-w, w * float(RNG.uniform(0.1, 2.0))))
        elif kind == 3:  # extreme magnitudes
            a = float(RNG.normal()) * 10.0 ** float(RNG.integers(-150, 150))
            b = a + abs(float(RNG.normal())) * abs(a)
            out.append(Interval(min(a, b), max(a, b)))
        else:  # plain
            a = float(RNG.normal(scale=scale))
            b = float(RNG.normal(scale=scale))
            out.append(Interval(min(a, b), max(a, b)))
    return out


EDGE_INTERVALS = [
    Interval(0.0, 0.0),
    Interval(-0.0, 0.0),
    Interval(1.0, 1.0),
    Interval(-1.0, 1.0),
    Interval(-math.inf, math.inf),
    Interval(-math.inf, -1.0),
    Interval(2.5, math.inf),
    Interval(0.0, math.inf),
    Interval(-math.inf, 0.0),
    Interval(5e-324, 5e-324),
    Interval(-1.7976931348623157e308, 1.7976931348623157e308),
    Interval(1e308, 1.5e308),
]


def batch_of(intervals: list[Interval]) -> tuple[np.ndarray, np.ndarray]:
    b = IntervalBatch.from_intervals(intervals)
    return b.lo, b.hi


def assert_bitwise(
    lo: np.ndarray, hi: np.ndarray, scalars: list[Interval]
) -> None:
    got_lo = [float(x) for x in lo]
    got_hi = [float(x) for x in hi]
    want_lo = [s.lo for s in scalars]
    want_hi = [s.hi for s in scalars]
    assert got_lo == want_lo
    assert got_hi == want_hi


#: Ways to lay a flat endpoint array out as 1-D, 2-D or 3-D kernel input:
#: stacked (reshaped, transposed) or broadcast (zero-stride views).
LAYOUTS = {
    "1d": lambda a: a,
    "2d-stacked": lambda a: a.reshape(-1, 1),
    "2d-transposed": lambda a: np.stack([a, a[::-1]]).T,
    "2d-broadcast": lambda a: np.broadcast_to(a, (2, a.size)),
    "3d-stacked": lambda a: a.reshape(1, -1, 1),
    "3d-broadcast": lambda a: np.broadcast_to(a.reshape(-1, 1), (3, a.size, 2)),
}


def assert_elementwise(out, op, lo: np.ndarray, hi: np.ndarray) -> None:
    """The endpoint pair ``out`` equals the scalar ``op`` on the
    intervals ``[lo, hi]`` (any shape) element by element, and keeps
    their shape."""
    out_lo, out_hi = out
    assert out_lo.shape == out_hi.shape == lo.shape
    scalars = [op(Interval(float(a), float(b))) for a, b in zip(lo.ravel(), hi.ravel())]
    assert_bitwise(out_lo.ravel(), out_hi.ravel(), scalars)


class TestBinaryKernels:
    def pairs(self) -> tuple[list[Interval], list[Interval]]:
        a = random_intervals(200) + EDGE_INTERVALS
        b = random_intervals(200) + list(reversed(EDGE_INTERVALS))
        return a, b

    def test_add_bitwise(self) -> None:
        a, b = self.pairs()
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        lo, hi = badd(alo, ahi, blo, bhi)
        assert_bitwise(lo, hi, [x + y for x, y in zip(a, b)])

    def test_sub_bitwise(self) -> None:
        a, b = self.pairs()
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        lo, hi = bsub(alo, ahi, blo, bhi)
        assert_bitwise(lo, hi, [x - y for x, y in zip(a, b)])

    def test_mul_bitwise(self) -> None:
        a, b = self.pairs()
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        lo, hi = bmul(alo, ahi, blo, bhi)
        assert_bitwise(lo, hi, [x * y for x, y in zip(a, b)])

    @pytest.mark.parametrize("row", [0, 57, 199])
    def test_mul_one_nan_row_in_a_finite_batch(self, row: int) -> None:
        """One ``0 * inf`` row among finite ones takes the NaN-cleaning
        path for the whole batch; every row still equals the scalar
        product byte for byte, and the bare kernel under the caller's
        ``np.errstate`` gives the same bytes."""
        a, b = random_intervals(200), random_intervals(200)
        a[row], b[row] = Interval(0.0, 0.0), Interval(-math.inf, 1.0)
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        lo, hi = bmul(alo, ahi, blo, bhi)
        want = [x * y for x, y in zip(a, b)]
        assert want[row] == Interval(-5e-324, 5e-324)
        assert lo.tobytes() == np.array([w.lo for w in want]).tobytes()
        assert hi.tobytes() == np.array([w.hi for w in want]).tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            bare = bmul_bare(*(a.reshape(-1, 8) for a in (alo, ahi, blo, bhi)))
        assert bare[0].tobytes() == lo.tobytes() and bare[1].tobytes() == hi.tobytes()

    def test_div_bitwise(self) -> None:
        a, b = self.pairs()
        b = [
            y if not (y.lo <= 0.0 <= y.hi) else Interval(1.0, 2.0)
            for y in b
        ]
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        lo, hi = bdiv(alo, ahi, blo, bhi)
        assert_bitwise(lo, hi, [x / y for x, y in zip(a, b)])

    def test_div_raises_on_zero_divisor(self) -> None:
        with pytest.raises(ZeroDivisionError):
            bdiv(
                np.array([1.0, 1.0]),
                np.array([2.0, 2.0]),
                np.array([1.0, -1.0]),
                np.array([2.0, 1.0]),
            )

    def test_hull_and_intersect_bitwise(self) -> None:
        a, b = self.pairs()
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        lo, hi = bhull(alo, ahi, blo, bhi)
        assert_bitwise(lo, hi, [x.hull(y) for x, y in zip(a, b)])
        # Intersect the hulls with a (always non-empty).
        ilo, ihi = bintersect(lo, hi, alo, ahi)
        assert_bitwise(
            ilo, ihi, [x.hull(y).intersect(x) for x, y in zip(a, b)]
        )

    def test_intersect_raises_on_disjoint(self) -> None:
        with pytest.raises(ValueError):
            bintersect(
                np.array([0.0]),
                np.array([1.0]),
                np.array([2.0]),
                np.array([3.0]),
            )


class TestUnaryKernels:
    def inputs(self) -> list[Interval]:
        return random_intervals(300) + EDGE_INTERVALS

    def test_neg_abs_bitwise(self) -> None:
        xs = self.inputs()
        lo0, hi0 = batch_of(xs)
        lo, hi = bneg(lo0, hi0)
        assert_bitwise(lo, hi, [-x for x in xs])
        lo, hi = babs(lo0, hi0)
        assert_bitwise(lo, hi, [x.abs() for x in xs])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, -1, -2])
    def test_pow_bitwise(self, n: int) -> None:
        # Python float ** raises OverflowError past the float range while
        # numpy saturates to inf (sound, and total); compare only where
        # the scalar path is defined.
        cap = 1e300 ** (1.0 / max(abs(n), 1))
        xs = [
            x
            for x in self.inputs()
            if x.is_finite() and x.mag < cap
        ]
        if n < 0:
            # Zero-spanning (or near-underflow, where the power rounds
            # into a zero-spanning interval) operands make both paths
            # raise ZeroDivisionError; substitute a benign interval.
            xs = [
                x
                if not (x.lo <= 0.0 <= x.hi) and x.mig > 1e-100
                else Interval(0.5, 3.0)
                for x in xs
            ]
        lo0, hi0 = batch_of(xs)
        lo, hi = bpow(lo0, hi0, n)
        assert_bitwise(lo, hi, [x**n for x in xs])

    def test_pow_total_on_overflow(self) -> None:
        # Squares saturate to an infinite (sound) bound on both paths
        # (multiplication overflows to inf rather than raising).
        big = 1.5e308
        lo, hi = bpow(np.array([big]), np.array([big]), 2)
        s = Interval(big, big) ** 2
        assert float(lo[0]) == s.lo > 0.0
        assert float(hi[0]) == s.hi == math.inf

    def test_sin_cos_bitwise(self) -> None:
        xs = random_intervals(300, scale=4.0) + EDGE_INTERVALS
        # Narrow angle intervals near extrema stress the phase test.
        for k in range(-8, 9):
            center = k * math.pi / 4.0
            xs.append(Interval(center - 1e-10, center + 1e-10))
            xs.append(Interval(center, center + 2.0))
        # Endpoints exactly at the extremum phases, and widths >= 2*pi.
        half_pi = math.pi / 2.0
        for a, b in [(-half_pi, half_pi), (half_pi, math.pi), (-math.pi, -half_pi), (0.0, math.pi)]:
            xs += [Interval(a, a), Interval(b, b), Interval(a, b)]
        two_pi = 2.0 * math.pi
        xs += [Interval(0.0, two_pi), Interval(-1.0, two_pi - 1.0), Interval(-3.0, 3.3), Interval(1.0, 100.0)]
        lo0, hi0 = batch_of(xs)
        for shape in LAYOUTS.values():
            lo, hi = shape(lo0), shape(hi0)
            assert_elementwise(bsin(lo, hi), isin, lo, hi)
            assert_elementwise(bcos(lo, hi), icos, lo, hi)
            slo, shi, clo, chi = bsincos(lo, hi)
            assert_elementwise((slo, shi), isin, lo, hi)
            assert_elementwise((clo, chi), icos, lo, hi)

    def test_sqrt_bitwise(self) -> None:
        xs = [
            x if x.lo >= 0.0 else Interval(x.mig, x.mag)
            for x in self.inputs()
        ]
        lo0, hi0 = batch_of(xs)
        lo, hi = bsqrt(lo0, hi0)
        assert_bitwise(lo, hi, [isqrt(x) for x in xs])

    def test_sqrt_clamp_tolerance(self) -> None:
        lo, hi = bsqrt(
            np.array([-1e-9]), np.array([4.0]), clamp_tolerance=1e-6
        )
        want = isqrt(Interval(-1e-9, 4.0), clamp_tolerance=1e-6)
        assert float(lo[0]) == want.lo and float(hi[0]) == want.hi
        with pytest.raises(ValueError):
            bsqrt(np.array([-1.0]), np.array([4.0]))

    def test_hypot_bitwise(self) -> None:
        def usable(x: Interval) -> Interval:
            if x.is_finite() and x.mag < 1e150:
                return x
            return Interval(-1.0, 2.0)

        xs = [usable(x) for x in self.inputs()]
        ys = [usable(y) for y in reversed(self.inputs())]
        xlo, xhi = batch_of(xs)
        ylo, yhi = batch_of(ys)
        lo, hi = bhypot(xlo, xhi, ylo, yhi)
        assert_bitwise(lo, hi, [ihypot(x, y) for x, y in zip(xs, ys)])

    def test_atan2_bitwise(self) -> None:
        """Random rectangles, plus ones on and next to the branch cut
        (the non-positive x-axis), signed-zero and infinite corners."""
        inf = math.inf
        edges = [
            (Interval(-1.0, 1.0), Interval(-2.0, -1.0)),
            (Interval(0.0, 1.0), Interval(-2.0, 0.0)),
            (Interval(-0.0, 0.0), Interval(1.0, 2.0)),
            (Interval(-0.0, -0.0), Interval(-2.0, -1.0)),
            (Interval(0.0, 0.0), Interval(-2.0, -1.0)),
            (Interval(1e-300, 1.0), Interval(-2.0, -1.0)),
            (Interval(-1.0, -1e-300), Interval(-inf, -1.0)),
            (Interval(2.0, inf), Interval(-inf, inf)),
            (Interval(-3.0, -2.0), Interval(0.0, 0.0)),
        ]
        ys = [y for y, _x in edges] + self.inputs()
        xs = [x for _y, x in edges] + list(reversed(self.inputs()))
        ylo, yhi = batch_of(ys)
        xlo, xhi = batch_of(xs)
        lo, hi = batan2(ylo, yhi, xlo, xhi)
        assert_bitwise(lo, hi, [iatan2(y, x) for y, x in zip(ys, xs)])


class TestEnclosureContract:
    """The weaker contract adapters rely on, stated independently."""

    def test_batched_encloses_scalar_and_is_tight(self) -> None:
        a = random_intervals(500)
        b = random_intervals(500)
        alo, ahi = batch_of(a)
        blo, bhi = batch_of(b)
        for kernel, op in [
            (badd, lambda x, y: x + y),
            (bsub, lambda x, y: x - y),
            (bmul, lambda x, y: x * y),
        ]:
            lo, hi = kernel(alo, ahi, blo, bhi)
            for i, (x, y) in enumerate(zip(a, b)):
                s = op(x, y)
                # Enclosure: batched result contains the scalar result.
                assert lo[i] <= s.lo and s.hi <= hi[i]
                # Tightness: no wider than one extra ulp nudge per bound.
                assert lo[i] >= math.nextafter(s.lo, -math.inf)
                assert hi[i] <= math.nextafter(s.hi, math.inf)


class TestContainers:
    def test_interval_batch_operators_match_scalar(self) -> None:
        xs = random_intervals(64)
        ys = random_intervals(64)
        bx = IntervalBatch.from_intervals(xs)
        by = IntervalBatch.from_intervals(ys)
        expr_batch = (bx * by - bx) * 2.0 + by
        expr_scalar = [(x * y - x) * 2.0 + y for x, y in zip(xs, ys)]
        assert_bitwise(expr_batch.lo, expr_batch.hi, expr_scalar)
        # Reverse operators and scalar coercion.
        r = 1.0 - bx
        assert_bitwise(r.lo, r.hi, [1.0 - x for x in xs])
        sq = bx.sq()
        assert_bitwise(sq.lo, sq.hi, [x.sq() for x in xs])

    def test_interval_batch_coerce_interval_operand(self) -> None:
        xs = random_intervals(16)
        bx = IntervalBatch.from_intervals(xs)
        k = Interval(-0.25, 0.75)
        r = bx * k
        assert_bitwise(r.lo, r.hi, [x * k for x in xs])

    def test_interval_batch_roundtrip(self) -> None:
        xs = random_intervals(10)
        bx = IntervalBatch.from_intervals(xs)
        assert bx.intervals() == xs
        assert bx[3] == xs[3]
        assert len(bx) == 10

    def test_interval_batch_validate_rejects_bad(self) -> None:
        with pytest.raises(ValueError):
            IntervalBatch(
                np.array([1.0]), np.array([0.0]), validate=True
            )
        with pytest.raises(ValueError):
            IntervalBatch(
                np.array([np.nan]), np.array([0.0]), validate=True
            )

    def test_box_batch_roundtrip_and_hull(self) -> None:
        boxes = [
            Box(np.array([0.0, -1.0]), np.array([1.0, 2.0])),
            Box(np.array([-3.0, 0.5]), np.array([0.25, 0.75])),
            Box(np.array([0.1, 0.1]), np.array([0.2, 0.9])),
        ]
        bb = BoxBatch.from_boxes(boxes)
        assert bb.count == 3 and bb.dim == 2
        assert [tuple(b.lo) for b in bb.boxes()] == [
            tuple(b.lo) for b in boxes
        ]
        hull = bb.hull_all()
        want = boxes[0].hull(boxes[1]).hull(boxes[2])
        assert tuple(hull.lo) == tuple(want.lo)
        assert tuple(hull.hi) == tuple(want.hi)


# ----------------------------------------------------------------------
# Property-based equivalence (hypothesis): the bitwise and enclosure
# contracts over adversarial endpoint pairs: signed zeros, subnormals,
# huge magnitudes and point intervals. Strategies stay finite — the
# scalar path raises on indeterminate forms like 0 * inf, so bitwise
# comparison is only defined there; ±inf coverage is deterministic via
# EDGE_INTERVALS above. NaN endpoints are rejected by both
# representations, and a dedicated test pins the rejection down.
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def interval_strategy(draw) -> Interval:
    a = draw(finite_floats)
    b = draw(finite_floats)
    lo, hi = min(a, b), max(a, b)
    return Interval(lo, hi)


@st.composite
def interval_lists(draw, min_size: int = 1, max_size: int = 8):
    return draw(
        st.lists(interval_strategy(), min_size=min_size, max_size=max_size)
    )


class TestPropertyEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(xs=interval_lists(), ys=interval_lists())
    def test_add_sub_mul_bitwise(self, xs, ys) -> None:
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        alo, ahi = batch_of(xs)
        blo, bhi = batch_of(ys)
        for kernel, op in [
            (badd, lambda x, y: x + y),
            (bsub, lambda x, y: x - y),
            (bmul, lambda x, y: x * y),
        ]:
            lo, hi = kernel(alo, ahi, blo, bhi)
            assert_bitwise(lo, hi, [op(x, y) for x, y in zip(xs, ys)])

    @settings(max_examples=200, deadline=None)
    @given(xs=interval_lists(), ys=interval_lists())
    def test_div_bitwise_when_divisor_misses_zero(self, xs, ys) -> None:
        n = min(len(xs), len(ys))
        xs = xs[:n]
        # Shift every divisor strictly away from zero.
        ys = [
            Interval(abs(y.lo) + 1.0, abs(y.lo) + 1.0 + (y.hi - y.lo))
            if math.isfinite(y.lo) and math.isfinite(y.hi)
            else Interval(1.0, 2.0)
            for y in ys[:n]
        ]
        alo, ahi = batch_of(xs)
        blo, bhi = batch_of(ys)
        lo, hi = bdiv(alo, ahi, blo, bhi)
        assert_bitwise(lo, hi, [x / y for x, y in zip(xs, ys)])

    @settings(max_examples=200, deadline=None)
    @given(xs=interval_lists(), layout=st.sampled_from(sorted(LAYOUTS)))
    def test_unary_kernels_bitwise(self, xs, layout) -> None:
        alo, ahi = batch_of(xs)
        alo, ahi = LAYOUTS[layout](alo), LAYOUTS[layout](ahi)
        for kernel, op in [
            (bneg, lambda x: -x),
            (babs, lambda x: x.abs()),
            (bsin, isin),
            (bcos, icos),
        ]:
            assert_elementwise(kernel(alo, ahi), op, alo, ahi)
        slo, shi, clo, chi = bsincos(alo, ahi)
        assert_elementwise((slo, shi), isin, alo, ahi)
        assert_elementwise((clo, chi), icos, alo, ahi)

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8
        )
    )
    def test_point_intervals_stay_points_under_hull(self, xs) -> None:
        points = [Interval(x, x) for x in xs]
        alo, ahi = batch_of(points)
        lo, hi = bhull(alo, ahi, alo, ahi)
        assert_bitwise(lo, hi, points)

    @settings(max_examples=100, deadline=None)
    @given(xs=interval_lists(), ys=interval_lists())
    def test_enclosure_never_wider_than_one_nudge(self, xs, ys) -> None:
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        alo, ahi = batch_of(xs)
        blo, bhi = batch_of(ys)
        for kernel, op in [
            (badd, lambda x, y: x + y),
            (bsub, lambda x, y: x - y),
            (bmul, lambda x, y: x * y),
        ]:
            lo, hi = kernel(alo, ahi, blo, bhi)
            for i, (x, y) in enumerate(zip(xs, ys)):
                s = op(x, y)
                assert lo[i] <= s.lo and s.hi <= hi[i]
                assert lo[i] >= math.nextafter(s.lo, -math.inf)
                assert hi[i] <= math.nextafter(s.hi, math.inf)

    def test_nan_rejected_by_both_layers(self) -> None:
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            IntervalBatch(
                np.array([math.nan]), np.array([1.0]), validate=True
            )

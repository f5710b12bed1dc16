"""Tests for the neural ACAS Xu controller: Pre/Pre#, networks, Post#."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from repro.acasxu import (
    ADVISORIES,
    INPUT_MEANS,
    INPUT_RANGES,
    PAPER_NUM_ARCS,
    PAPER_NUM_HEADINGS,
    AcasPre,
    TURN_RATES_DEG,
    build_controller,
    command_set,
    initial_cell,
    initial_cells,
    normalize_inputs,
)
from repro.intervals import Box, Interval
from repro.nn import Network


class TestCommandSet:
    def test_five_advisories(self):
        commands = command_set()
        assert len(commands) == 5
        assert commands.names == list(ADVISORIES)

    def test_turn_rates_in_radians(self):
        commands = command_set()
        for i, deg in enumerate(TURN_RATES_DEG):
            assert commands.value(i)[0] == pytest.approx(math.radians(deg))

    def test_coc_is_zero(self):
        assert command_set().value(0)[0] == 0.0


class TestNormalization:
    def test_centered_at_means(self):
        assert np.allclose(normalize_inputs(INPUT_MEANS), np.zeros(5))

    def test_scale(self):
        raw = INPUT_MEANS + INPUT_RANGES
        assert np.allclose(normalize_inputs(raw), np.ones(5))


class TestAcasPreConcrete:
    def test_head_on_input(self):
        pre = AcasPre()
        state = np.array([0.0, 8000.0, math.pi, 700.0, 600.0])
        x = pre.concrete(state)
        raw = x * INPUT_RANGES + INPUT_MEANS
        assert raw[0] == pytest.approx(8000.0)  # rho
        assert raw[1] == pytest.approx(0.0, abs=1e-12)  # theta: dead ahead
        assert raw[2] == pytest.approx(math.pi)
        assert raw[3] == pytest.approx(700.0)
        assert raw[4] == pytest.approx(600.0)

    def test_left_bearing_positive(self):
        pre = AcasPre()
        x = pre.concrete(np.array([-1000.0, 1000.0, 0.0, 700.0, 600.0]))
        theta = x[1] * INPUT_RANGES[1] + INPUT_MEANS[1]
        assert theta == pytest.approx(math.pi / 4.0)

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            AcasPre("zonotope")


class TestAcasPreAbstract:
    @pytest.mark.parametrize("mode", ["interval", "affine"])
    def test_contains_concrete(self, mode):
        pre = AcasPre(mode)
        box = Box(
            [-500.0, 7000.0, 2.9, 700.0, 600.0],
            [500.0, 8000.0, 3.2, 700.0, 600.0],
        )
        out = pre.abstract(box)
        rng = np.random.default_rng(3)
        for s in box.sample(rng, 100):
            assert out.contains_point(pre.concrete(s))

    @pytest.mark.parametrize("mode", ["interval", "affine"])
    def test_behind_ownship_branch_cut(self, mode):
        """Boxes behind the ownship straddle the atan2 branch cut; the
        transformer must stay sound (it falls back to [-pi, pi])."""
        pre = AcasPre(mode)
        box = Box(
            [-200.0, -6000.0, 0.0, 700.0, 600.0],
            [200.0, -5000.0, 0.2, 700.0, 600.0],
        )
        out = pre.abstract(box)
        rng = np.random.default_rng(4)
        for s in box.sample(rng, 50):
            assert out.contains_point(pre.concrete(s))

    def test_affine_not_looser_than_interval(self):
        """The affine Pre# intersects with the interval result, so it
        can only be tighter."""
        box = Box(
            [1000.0, 3000.0, 1.0, 700.0, 600.0],
            [1400.0, 3500.0, 1.2, 700.0, 600.0],
        )
        iv = AcasPre("interval").abstract(box)
        af = AcasPre("affine").abstract(box)
        for i in range(5):
            assert af[i].width <= iv[i].width * (1.0 + 1e-9)

    @pytest.mark.parametrize("mode", ["interval", "affine"])
    def test_abstract_batch_bitwise(self, mode):
        """abstract_batch rows are bitwise identical to per-box
        abstract(), including branch-cut and degenerate-point rows."""
        pre = AcasPre(mode)
        boxes = [
            Box(
                [-500.0, 7000.0, 2.9, 700.0, 600.0],
                [500.0, 8000.0, 3.2, 700.0, 600.0],
            ),
            # Behind the ownship: straddles the atan2 branch cut.
            Box(
                [-200.0, -6000.0, 0.0, 700.0, 600.0],
                [200.0, -5000.0, 0.2, 700.0, 600.0],
            ),
            # Degenerate point box.
            Box(
                [100.0, 4000.0, 1.5, 700.0, 600.0],
                [100.0, 4000.0, 1.5, 700.0, 600.0],
            ),
            Box(
                [1000.0, 3000.0, 1.0, 700.0, 600.0],
                [1400.0, 3500.0, 1.2, 700.0, 600.0],
            ),
        ]
        lo = np.stack([b.lo for b in boxes])
        hi = np.stack([b.hi for b in boxes])
        out_lo, out_hi = pre.abstract_batch(lo, hi)
        for r, box in enumerate(boxes):
            want = pre.abstract(box)
            assert out_lo[r].tobytes() == want.lo.tobytes()
            assert out_hi[r].tobytes() == want.hi.tobytes()


def _paper_cells() -> list[Box]:
    """A spread of cells of the paper's 629 x 316 partition."""
    arcs = np.linspace(-math.pi, math.pi, PAPER_NUM_ARCS + 1)
    headings = np.linspace(-math.pi / 2.0, math.pi / 2.0, PAPER_NUM_HEADINGS + 1)
    picks = [
        (0, 0), (100, 315), (157, 158), (313, 40), (314, 200), (315, 3), (471, 250), (628, 315)
    ]
    return [
        initial_cell(Interval(arcs[a], arcs[a + 1]), Interval(headings[h], headings[h + 1]))
        for a, h in picks
    ]


def _tiny_cells() -> list[Box]:
    return [box for box, _command, _tags in initial_cells(8, 3)]


def _subnormal(values: np.ndarray) -> np.ndarray:
    magnitude = np.abs(values)
    return (magnitude > 0.0) & (magnitude < np.finfo(float).tiny)


def _stacked(boxes: list[Box]) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([b.lo for b in boxes]), np.stack([b.hi for b in boxes])


class TestPreExactMeans:
    """An input whose interval is exactly its normalization mean (the
    scenario's constant speeds) is normalized to the exact point 0
    rather than nudged outward to subnormal endpoints."""

    @pytest.mark.parametrize("cells", [_paper_cells, _tiny_cells], ids=["paper", "tiny"])
    def test_constant_speeds_are_exact_zero(self, cells):
        pre = AcasPre()
        boxes = cells()
        out_lo, out_hi = pre.abstract_batch(*_stacked(boxes))
        zeros = np.zeros((len(boxes), 2))
        assert out_lo[:, 3:].tobytes() == zeros.tobytes()
        assert out_hi[:, 3:].tobytes() == zeros.tobytes()
        for box in boxes:
            out = pre.abstract(box)
            assert out.lo[3:].tobytes() == zeros[0].tobytes()
            assert out.hi[3:].tobytes() == zeros[0].tobytes()

    @pytest.mark.parametrize("cells", [_paper_cells, _tiny_cells], ids=["paper", "tiny"])
    def test_no_subnormal_endpoints_of_its_own(self, cells):
        """``Pre#`` adds no subnormal endpoint. On the paper cells there
        is none at all; a tiny cell whose arc ends at position angle 0
        starts with a subnormal ``x`` endpoint (``isin(0) * 8000``),
        which reaches ``theta`` and is the only source allowed."""
        pre = AcasPre()
        boxes = cells()
        lo, hi = _stacked(boxes)
        out_lo, out_hi = pre.abstract_batch(lo, hi)
        produced = _subnormal(out_lo).any(axis=1) | _subnormal(out_hi).any(axis=1)
        inherited = _subnormal(lo).any(axis=1) | _subnormal(hi).any(axis=1)
        assert not np.any(produced & ~inherited)
        if cells is _paper_cells:
            assert not np.any(produced)

    def test_rows_off_the_mean_keep_outward_rounding(self):
        """Inputs that are not exactly the mean point (a speed interval,
        or one with a single endpoint at the mean) are normalized by the
        outward-rounded interval formula, bit for bit."""
        pre = AcasPre()
        boxes = [
            Box([-500.0, 7000.0, 2.9, 690.0, 600.0], [500.0, 8000.0, 3.2, 710.0, 600.0]),
            Box([-500.0, 7000.0, 2.9, 700.0, 595.0], [500.0, 8000.0, 3.2, 700.0, 600.0]),
            Box([100.0, 4000.0, 1.5, 697.0, 600.0], [100.0, 4000.0, 1.5, 700.0, 612.0]),
        ]
        out_lo, out_hi = pre.abstract_batch(*_stacked(boxes))
        for r, box in enumerate(boxes):
            raw = [*AcasPre._polar_interval(box), box[2], box[3], box[4]]
            for i, iv in enumerate(raw):
                if iv.lo == iv.hi == INPUT_MEANS[i]:
                    want = Interval(0.0, 0.0)
                else:
                    want = (iv - float(INPUT_MEANS[i])) * (1.0 / float(INPUT_RANGES[i]))
                assert out_lo[r, i].tobytes() == np.float64(want.lo).tobytes()
                assert out_hi[r, i].tobytes() == np.float64(want.hi).tobytes()
        # The exact-mean inputs above: v_int of box 0 and v_own of box 1.
        assert out_lo[0, 4] == out_hi[0, 4] == 0.0
        assert out_lo[1, 3] == out_hi[1, 3] == 0.0
        assert out_lo[1, 4] < 0.0 < out_hi[1, 4]
        assert out_lo[2, 3] < 0.0 < out_hi[2, 3]

    @pytest.mark.parametrize("cells", [_paper_cells, _tiny_cells], ids=["paper", "tiny"])
    def test_contains_concrete(self, cells):
        pre = AcasPre()
        rng = np.random.default_rng(11)
        for box in cells():
            out = pre.abstract(box)
            for s in box.sample(rng, 25):
                assert out.contains_point(pre.concrete(s))


class TestBuildController:
    def _networks(self):
        rng = np.random.default_rng(0)
        return [Network.random([5, 8, 5], rng) for _ in range(5)]

    def test_wrong_count_raises(self):
        with pytest.raises(ValueError):
            build_controller(self._networks()[:3])

    def test_lambda_is_identity(self):
        controller = build_controller(self._networks())
        for i in range(5):
            assert controller.selector(i) == i

    def test_execute_returns_valid_advisory(self):
        controller = build_controller(self._networks())
        state = np.array([0.0, 8000.0, math.pi, 700.0, 600.0])
        for prev in range(5):
            assert 0 <= controller.execute(state, prev) < 5

    def test_abstract_execution_sound(self, tiny_system):
        """Pre# + F# + Post# covers the concrete controller on boxes."""
        controller = tiny_system.controller
        box = Box(
            [-400.0, 7400.0, 2.8, 700.0, 600.0],
            [400.0, 8000.0, 3.3, 700.0, 600.0],
        )
        for prev in range(5):
            reachable = controller.execute_abstract(box, prev)
            rng = np.random.default_rng(10 + prev)
            for s in box.sample(rng, 40):
                assert controller.execute(s, prev) in reachable

    def test_small_box_often_decided(self, tiny_system):
        """On a tight box away from decision boundaries Post# should
        usually give a single command."""
        controller = tiny_system.controller
        # A clear, close threat straight ahead.
        box = Box(
            [-20.0, 3990.0, 3.10, 700.0, 600.0],
            [20.0, 4030.0, 3.14, 700.0, 600.0],
        )
        reachable = controller.execute_abstract(box, 0)
        assert len(reachable) <= 3


def _paper_networks() -> list[Network]:
    """The committed 6x50 paper bank (networks only: its tables are not
    needed to propagate)."""
    from repro.acasxu import PAPER_SCENARIO
    from repro.nn.serialize import load_npz

    key = f"{PAPER_SCENARIO.table_config.key()}-{PAPER_SCENARIO.network_config.key()}"
    bank = Path(os.environ["REPRO_CACHE"]) / key
    return [load_npz(bank / f"network_{i}.npz") for i in range(len(ADVISORIES))]


#: Previous advisories of a mixed wave, out of network order: every
#: network is selected, networks 1 and 4 by one row each.
MIXED_COMMANDS = [3, 0, 2, 4, 0, 3, 2, 0, 1, 2, 3, 0]


def _mixed_wave(rows: int = len(MIXED_COMMANDS)) -> tuple[list[Box], list[int]]:
    """Wide coarse-grid cells (many unstable neurons) with distinct
    shifts, paired with MIXED_COMMANDS (repeated past its length)."""
    cells = initial_cells(8, 3)
    boxes = []
    for r in range(rows):
        box, _command, _tags = cells[(5 * r) % len(cells)]
        shift = 7.0 * r
        boxes.append(Box(box.lo + shift, box.hi + shift))
    return boxes, [MIXED_COMMANDS[r % len(MIXED_COMMANDS)] for r in range(rows)]


def _stacked_inputs(controller, boxes):
    lo = np.stack([b.lo for b in boxes])
    hi = np.stack([b.hi for b in boxes])
    return controller.pre.abstract_batch(lo, hi)


class TestOnePassWave:
    """``execute_abstract_batch`` runs Pre#, one stacked F# and Post# once
    over a wave whatever network each row selects; every row equals its
    per-row reference."""

    @pytest.fixture(params=["tiny", "paper"])
    def controller(self, request, tiny_system):
        if request.param == "tiny":
            return tiny_system.controller
        return build_controller(_paper_networks())

    def test_rows_equal_execute_abstract(self, controller):
        boxes, commands = _mixed_wave()
        assert controller.execute_abstract_batch(boxes, commands) == [
            controller.execute_abstract(b, c) for b, c in zip(boxes, commands)
        ]

    def test_stacked_scores_bitwise(self, controller):
        boxes, commands = _mixed_wave()
        x_lo, x_hi = _stacked_inputs(controller, boxes)
        leader = controller.propagators[0]
        assert leader.can_stack(controller.propagators)
        out_lo, out_hi = leader.output_bounds_batch(
            x_lo, x_hi, controller.networks, commands
        )
        for r, network in enumerate(commands):
            want_lo, want_hi = controller.propagators[network].output_bounds(
                Box(x_lo[r], x_hi[r])
            )
            assert out_lo[r].tobytes() == want_lo.tobytes()
            assert out_hi[r].tobytes() == want_hi.tobytes()

    def test_waves_longer_than_one_pass(self, tiny_system):
        from repro.verify.symbolic import STACK_ROWS

        controller = tiny_system.controller
        boxes, commands = _mixed_wave(STACK_ROWS + 9)
        x_lo, x_hi = _stacked_inputs(controller, boxes)
        out_lo, out_hi = controller.propagators[0].output_bounds_batch(
            x_lo, x_hi, controller.networks, commands
        )
        for r in (0, STACK_ROWS - 1, STACK_ROWS, STACK_ROWS + 8):
            want_lo, want_hi = controller.propagators[commands[r]].output_bounds(
                Box(x_lo[r], x_hi[r])
            )
            assert out_lo[r].tobytes() == want_lo.tobytes()
            assert out_hi[r].tobytes() == want_hi.tobytes()

    @pytest.mark.parametrize("select", [[0, 1, 5], [-1, 0]], ids=["past-end", "negative"])
    def test_select_out_of_range_rejected(self, tiny_system, select):
        controller = tiny_system.controller
        assert len(controller.networks) == 5
        x_lo, x_hi = _stacked_inputs(controller, _mixed_wave(len(select))[0])
        with pytest.raises(ValueError, match="select indices"):
            controller.propagators[0].output_bounds_batch(
                x_lo, x_hi, controller.networks, select
            )

    def test_empty_wave(self, tiny_system):
        controller = tiny_system.controller
        assert controller.execute_abstract_batch([], []) == []
        empty = np.empty((0, controller.networks[0].input_size))
        out_lo, out_hi = controller.propagators[0].output_bounds_batch(
            empty, empty, controller.networks, []
        )
        assert out_lo.shape == out_hi.shape == (0, controller.networks[0].output_size)

    def test_one_call_per_stage(self, tiny_system, monkeypatch):
        """Pre#, F# and Post# each run once for the whole wave."""
        controller = tiny_system.controller
        calls = []
        for owner, name in (
            (type(controller.pre), "abstract_batch"),
            (type(controller.propagators[0]), "output_bounds_batch"),
            (type(controller.post), "abstract_batch"),
        ):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        boxes, commands = _mixed_wave()
        controller.execute_abstract_batch(boxes, commands)
        assert sorted(calls) == ["abstract_batch", "abstract_batch", "output_bounds_batch"]


class TestPerNetworkFallback:
    """Propagators without a stacked form keep one call per selected
    network, with the same rows as the per-row reference."""

    @staticmethod
    def _assert_rows_equal(controller):
        boxes, commands = _mixed_wave()
        assert controller.execute_abstract_batch(boxes, commands) == [
            controller.execute_abstract(b, c) for b, c in zip(boxes, commands)
        ]

    def test_non_symbolic_propagator(self, tiny_system):
        from repro.core import ArgminPost, Controller
        from repro.verify import IntervalPropagator

        controller = Controller(
            networks=tiny_system.controller.networks,
            commands=command_set(),
            pre=AcasPre(),
            post=ArgminPost(),
            selector=lambda previous: previous,
            propagator_factory=IntervalPropagator,
        )
        self._assert_rows_equal(controller)

    def test_networks_of_unequal_architecture(self, tiny_system):
        networks = list(tiny_system.controller.networks)
        networks[2] = _paper_networks()[2]
        controller = build_controller(networks)
        assert not controller.propagators[0].can_stack(controller.propagators)
        self._assert_rows_equal(controller)
        x_lo, x_hi = _stacked_inputs(controller, _mixed_wave()[0])
        with pytest.raises(ValueError, match="layer shapes"):
            controller.propagators[0].output_bounds_batch(
                x_lo, x_hi, networks, MIXED_COMMANDS
            )

    def test_deeppoly(self, tiny_system):
        controller = build_controller(tiny_system.controller.networks, relaxation="deeppoly")
        assert not controller.propagators[0].can_stack(controller.propagators)
        self._assert_rows_equal(controller)
        x_lo, x_hi = _stacked_inputs(controller, _mixed_wave()[0])
        with pytest.raises(ValueError, match="DeepPoly"):
            controller.propagators[0].output_bounds_batch(
                x_lo, x_hi, controller.networks, MIXED_COMMANDS
            )

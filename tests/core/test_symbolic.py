"""Tests for symbolic states/sets and the RESIZE join heuristic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SymbolicSet, SymbolicState, resize
from repro.core.symbolic import _center, _distance_sq
from repro.intervals import Box, hull_of_boxes


def state(lo, hi, command=0):
    return SymbolicState(Box(lo, hi), command)


def _resize_oracle(symbolic_set: SymbolicSet, threshold: int) -> int:
    """RESIZE as a full rebuild: before every join, list every
    same-command pair (clusters in first-appearance order, pairs in list
    order), sum squared center differences left to right, and take the
    first strict minimum (a NaN wins only as the first pair)."""
    distinct = len(symbolic_set.commands())
    if threshold < distinct:
        raise ValueError(
            f"threshold {threshold} below the {distinct} distinct commands "
            "present; no sequence of joins can reach it (Remark 3)"
        )
    joins = 0
    if len(symbolic_set) <= threshold:
        return 0
    centers: list[np.ndarray] = [s.box.center for s in symbolic_set.states]
    while len(symbolic_set) > threshold:
        groups = symbolic_set.group_by_command()
        pair_a: list[int] = []
        pair_b: list[int] = []
        for indices in groups.values():
            for a in range(len(indices)):
                ia = indices[a]
                for b in range(a + 1, len(indices)):
                    pair_a.append(ia)
                    pair_b.append(indices[b])
        cm = np.stack(centers)
        diff = cm[pair_a] - cm[pair_b]
        sq = diff * diff
        dist = sq[:, 0].copy()
        for k in range(1, sq.shape[1]):
            dist = dist + sq[:, k]
        if np.isnan(dist).any():
            best_idx = 0
            for idx in range(1, dist.shape[0]):
                if dist[idx] < dist[best_idx]:
                    best_idx = idx
        else:
            best_idx = int(np.argmin(dist))
        i, j = pair_a[best_idx], pair_b[best_idx]
        joined = symbolic_set[i].join(symbolic_set[j])
        del symbolic_set.states[j]
        del symbolic_set.states[i]
        del centers[j]
        del centers[i]
        symbolic_set.add(joined)
        centers.append(joined.box.center)
        joins += 1
    return joins


def _outcome(resize_fn, states, threshold):
    """(list as command/endpoint bytes, joins or the ValueError text)."""
    working = SymbolicSet(list(states))
    try:
        with np.errstate(invalid="ignore"):
            result = resize_fn(working, threshold)
    except ValueError as err:
        result = f"ValueError: {err}"
    listing = [
        (s.command, s.box.lo.tobytes(), s.box.hi.tobytes()) for s in working
    ]
    return listing, result


def assert_matches_oracle(states, threshold):
    assert _outcome(resize, states, threshold) == _outcome(
        _resize_oracle, states, threshold
    )


# Integer-grid endpoints make exact distance ties common, within and
# across clusters; ±0 and ±inf endpoints give signed-zero hulls and
# NaN/inf centers.
_endpoints = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
)


@st.composite
def _symbolic_sets(draw):
    dims = draw(st.integers(min_value=1, max_value=6))
    commands = draw(st.integers(min_value=1, max_value=6))
    pool = draw(
        st.lists(
            st.lists(st.tuples(_endpoints, _endpoints), min_size=dims, max_size=dims),
            min_size=1,
            max_size=8,
        )
    )
    # sorted() is stable, so equal ±0 endpoints keep both sign orders.
    boxes = [Box(*zip(*(sorted(e) for e in pairs))) for pairs in pool]
    # Drawing boxes from a small pool gives duplicates.
    states = draw(
        st.lists(
            st.builds(
                SymbolicState,
                st.sampled_from(boxes),
                st.integers(min_value=0, max_value=commands - 1),
            ),
            min_size=1,
            max_size=16,
        )
    )
    present = len({s.command for s in states})
    threshold = draw(st.integers(min_value=present - 1, max_value=len(states)))
    return states, threshold


class TestSymbolicState:
    def test_distance_definition_9(self):
        a = state([0.0, 0.0], [2.0, 2.0])  # center (1, 1)
        b = state([3.0, 4.0], [5.0, 6.0])  # center (4, 5)
        assert a.distance_sq(b) == pytest.approx(25.0)

    def test_distance_requires_same_command(self):
        with pytest.raises(ValueError):
            state([0.0], [1.0], 0).distance_sq(state([0.0], [1.0], 1))

    def test_join_definition_10(self):
        joined = state([0.0], [1.0]).join(state([3.0], [4.0]))
        assert joined.box == Box([0.0], [4.0])
        assert joined.command == 0

    def test_join_requires_same_command(self):
        with pytest.raises(ValueError):
            state([0.0], [1.0], 0).join(state([0.0], [1.0], 1))

    def test_contains(self):
        s = state([0.0], [1.0], command=2)
        assert s.contains(np.array([0.5]), 2)
        assert not s.contains(np.array([0.5]), 1)
        assert not s.contains(np.array([2.0]), 2)


class TestSymbolicSet:
    def test_collection_interface(self):
        ss = SymbolicSet([state([0.0], [1.0], 0), state([2.0], [3.0], 1)])
        assert len(ss) == 2
        assert ss[0].command == 0
        assert ss.commands() == {0, 1}
        groups = ss.group_by_command()
        assert groups == {0: [0], 1: [1]}

    def test_contains_union_semantics(self):
        ss = SymbolicSet([state([0.0], [1.0], 0), state([2.0], [3.0], 0)])
        assert ss.contains(np.array([2.5]), 0)
        assert not ss.contains(np.array([1.5]), 0)

    def test_copy_independent(self):
        ss = SymbolicSet([state([0.0], [1.0], 0)])
        clone = ss.copy()
        clone.add(state([5.0], [6.0], 0))
        assert len(ss) == 1

    def test_hull_box(self):
        ss = SymbolicSet([state([0.0], [1.0], 0), state([4.0], [5.0], 1)])
        assert ss.hull_box() == Box([0.0], [5.0])


class TestResize:
    def test_joins_closest_pair_first(self):
        ss = SymbolicSet(
            [
                state([0.0], [1.0], 0),
                state([1.1], [2.0], 0),  # closest to the first
                state([10.0], [11.0], 0),
            ]
        )
        joins = resize(ss, 2)
        assert joins == 1
        assert len(ss) == 2
        boxes = sorted((s.box.lo[0], s.box.hi[0]) for s in ss)
        assert boxes == [(0.0, 2.0), (10.0, 11.0)]

    def test_never_joins_across_commands(self):
        ss = SymbolicSet(
            [
                state([0.0], [1.0], 0),
                state([0.0], [1.0], 1),  # same geometry, different command
                state([0.2], [1.2], 0),
            ]
        )
        resize(ss, 2)
        assert len(ss) == 2
        assert ss.commands() == {0, 1}

    def test_remark_3_threshold_validation(self):
        ss = SymbolicSet([state([0.0], [1.0], 0), state([0.0], [1.0], 1)])
        with pytest.raises(ValueError):
            resize(ss, 1)

    def test_noop_when_under_threshold(self):
        ss = SymbolicSet([state([0.0], [1.0], 0)])
        assert resize(ss, 5) == 0
        assert len(ss) == 1

    @settings(max_examples=400, deadline=None)
    @given(_symbolic_sets())
    def test_matches_rebuild_oracle(self, drawn):
        """Same list (commands, endpoint bytes, order), same join count,
        same ValueError as the full-rebuild RESIZE."""
        states, threshold = drawn
        assert_matches_oracle(states, threshold)

    def test_cross_cluster_tie_goes_to_first_appearance(self):
        # Both pairs are at distance 4; command 1 appears first.
        states = [
            state([0.0], [0.0], 1),
            state([5.0], [5.0], 0),
            state([7.0], [7.0], 0),
            state([2.0], [2.0], 1),
        ]
        assert_matches_oracle(states, 3)
        ss = SymbolicSet(list(states))
        resize(ss, 3)
        assert [s.command for s in ss] == [0, 0, 1]
        assert ss[2].box == Box([0.0], [2.0])

    def test_first_appearance_follows_the_current_list(self):
        # The first join moves command 0's first member behind command
        # 1's, so the next tie (both at distance 4) goes to command 1.
        states = [
            state([0.0], [0.0], 0),
            state([1.0], [1.0], 0),
            state([10.0], [10.0], 1),
            state([12.0], [12.0], 1),
            state([2.0], [3.0], 0),
        ]
        assert_matches_oracle(states, 3)
        ss = SymbolicSet(list(states))
        assert resize(ss, 3) == 2
        assert [s.box for s in ss] == [
            Box([2.0], [3.0]),
            Box([0.0], [1.0]),
            Box([10.0], [12.0]),
        ]

    @pytest.mark.parametrize(
        "layout, joined",
        [
            # NaN enumeration-first pair wins over a closer later pair.
            ([("inf", 0), ("a", 0), ("b", 0)], ("inf", "a")),
            # A NaN pair later in the scan never wins.
            ([("a", 0), ("b", 0), ("inf", 0)], ("a", "b")),
            # Across clusters: the first cluster's NaN first pair wins.
            ([("inf", 1), ("a", 0), ("b", 0), ("far", 1)], ("inf", "far")),
            # A later cluster's NaN first pair neither wins nor hides
            # that cluster's number pairs.
            (
                [("a", 0), ("far", 0), ("inf", 1), ("b", 1), ("c", 1)],
                ("b", "c"),
            ),
        ],
        ids=["nan-first", "nan-later", "nan-first-cluster", "nan-later-cluster"],
    )
    def test_nan_distance_rule(self, layout, joined):
        boxes = {
            "inf": Box([-math.inf], [math.inf]),  # NaN center
            "a": Box([0.0], [1.0]),
            "b": Box([0.0], [1.0]),
            "c": Box([0.0], [2.0]),
            "far": Box([100.0], [101.0]),
        }
        states = [SymbolicState(boxes[name], command) for name, command in layout]
        assert_matches_oracle(states, len(states) - 1)
        ss = SymbolicSet(list(states))
        resize(ss, len(states) - 1)
        first, second = joined
        assert ss[-1].box == hull_of_boxes([boxes[first], boxes[second]])

    @pytest.mark.parametrize("first_lo", [0.0, -0.0])
    def test_signed_zero_hull_keeps_operand_order(self, first_lo):
        # np.minimum/np.maximum return the second operand on ±0 ties, so
        # the earlier state must be the hull's first operand.
        states = [
            state([first_lo], [first_lo]),
            state([-first_lo], [-first_lo]),
        ]
        assert_matches_oracle(states, 1)
        ss = SymbolicSet(list(states))
        resize(ss, 1)
        expected = np.array([-first_lo]).tobytes()
        assert ss[0].box.lo.tobytes() == expected
        assert ss[0].box.hi.tobytes() == expected

    def test_twenty_five_states_five_commands_collapse(self):
        """The dominant lockstep shape: 5 states per command, Gamma = 5,
        so every cluster collapses to its hull in 20 joins."""
        rng = np.random.default_rng(7)
        states = []
        for i in range(25):
            lo = np.round(rng.normal(size=5) * 4)
            states.append(SymbolicState(Box(lo, lo + rng.integers(0, 3, 5)), i % 5))
        assert_matches_oracle(states, 5)
        ss = SymbolicSet(list(states))
        assert resize(ss, 5) == 20
        assert sorted(s.command for s in ss) == [0, 1, 2, 3, 4]
        for s in ss:
            inputs = [t.box for t in states if t.command == s.command]
            assert s.box == hull_of_boxes(inputs)

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_subnormal=True),
                st.floats(allow_nan=False, allow_subnormal=True),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example([(-0.0, 5e-324)])  # midpoint rounds to +0, clip keeps lo = -0
    @example([(-0.0, 0.0), (0.0, -0.0), (-5e-324, 5e-324)])
    @example([(-math.inf, math.inf), (math.inf, math.inf), (-math.inf, 1.0)])
    @example([(1e308, 1.7976931348623157e308)])  # lo + hi overflows
    def test_python_center_matches_box_center(self, pairs):
        box = Box(*zip(*(sorted(p) for p in pairs)))
        with np.errstate(invalid="ignore", over="ignore"):
            expected = box.center
        assert np.array(_center(box), dtype=float).tobytes() == expected.tobytes()

    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
            min_size=2,
            max_size=14,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_distance_matches_definition_9_below_8_dims(self, pairs, dims):
        """resize's left-to-right sum equals np.sum below 8 dimensions."""
        a = Box(*zip(*(sorted(p) for p in pairs[:dims])))
        b = Box(*zip(*(sorted(p) for p in pairs[-dims:])))
        got = _distance_sq(_center(a), _center(b))
        assert got == SymbolicState(a, 0).distance_sq(SymbolicState(b, 0))

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    def test_resize_is_sound_overapproximation(self, count, num_commands, rnd):
        """Every concrete (state, command) covered before RESIZE is
        still covered afterwards (the Ensure clause of Algorithm 2)."""
        rng = np.random.default_rng(rnd.randrange(2**32))
        states = []
        for _ in range(count):
            lo = rng.normal(size=2) * 5
            states.append(
                SymbolicState(Box(lo, lo + rng.random(2)), int(rng.integers(num_commands)))
            )
        ss = SymbolicSet(states)
        samples = []
        for s in states:
            for p in s.box.sample(rng, 5):
                samples.append((p, s.command))
        threshold = max(num_commands, count // 2, 1)
        resize(ss, threshold)
        assert len(ss) <= max(threshold, 1)
        for point, command in samples:
            assert ss.contains(point, command)

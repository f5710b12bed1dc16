"""Symbolic states and symbolic sets (Definitions 7-10 of the paper).

A symbolic state ``([s], u)`` pairs an ``l``-box of plant states with a
*concrete* actuation command — exploiting that the command set ``U`` is
finite, which is what lets the procedure keep exact command information
while abstracting the continuous state. Commands are referenced by
index into the system's :class:`~repro.core.system.CommandSet`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..intervals import Box


@dataclass(frozen=True)
class SymbolicState:
    """Definition 7: a plant-state box plus a concrete command index."""

    box: Box
    command: int

    def distance_sq(self, other: "SymbolicState") -> float:
        """Definition 9: squared distance between box centers.

        Only defined between states with equal commands.
        """
        if self.command != other.command:
            raise ValueError(
                "distance is only defined between states with the same command"
            )
        return self.box.center_distance_sq(other.box)

    def join(self, other: "SymbolicState") -> "SymbolicState":
        """Definition 10: hull of the boxes, same command."""
        if self.command != other.command:
            raise ValueError("cannot join states with different commands")
        return SymbolicState(self.box.hull(other.box), self.command)

    def contains(self, state: np.ndarray, command: int) -> bool:
        """Concrete membership of ``(state, command)``."""
        return command == self.command and self.box.contains_point(state)

    def __repr__(self) -> str:
        return f"SymbolicState(u#{self.command}, {self.box!r})"


@dataclass
class SymbolicSet:
    """Definition 8: a finite collection of symbolic states."""

    states: list[SymbolicState] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[SymbolicState]:
        return iter(self.states)

    def __getitem__(self, index: int) -> SymbolicState:
        return self.states[index]

    def add(self, state: SymbolicState) -> None:
        self.states.append(state)

    def extend(self, states: Iterable[SymbolicState]) -> None:
        self.states.extend(states)

    def commands(self) -> set[int]:
        """The distinct command indices present."""
        return {s.command for s in self.states}

    def group_by_command(self) -> dict[int, list[int]]:
        """Indices of member states, grouped by command (Algorithm 2's
        clusters G_i)."""
        groups: dict[int, list[int]] = {}
        for i, state in enumerate(self.states):
            groups.setdefault(state.command, []).append(i)
        return groups

    def contains(self, state: np.ndarray, command: int) -> bool:
        """Concrete membership of ``(state, command)`` in the union."""
        return any(s.contains(state, command) for s in self.states)

    def hull_box(self) -> Box:
        """Hull of all boxes, commands ignored (diagnostics only)."""
        from ..intervals import hull_of_boxes

        return hull_of_boxes([s.box for s in self.states])

    def copy(self) -> "SymbolicSet":
        return SymbolicSet(list(self.states))

    def __repr__(self) -> str:
        return f"SymbolicSet({len(self.states)} states, commands={sorted(self.commands())})"


def resize(symbolic_set: SymbolicSet, threshold: int) -> int:
    """Algorithm 2 (RESIZE): join closest same-command states in place
    until at most ``threshold`` symbolic states remain.

    Returns the number of joins performed. Requires ``threshold`` to be
    at least the number of distinct commands present (Remark 3),
    because states with different commands can never be joined.

    Each join takes the first strict minimum of the squared center
    distance (Definition 9) in enumeration order: clusters in order of
    first appearance in the current list, pairs ``(a, b)`` in list
    order within a cluster. A NaN distance (from unbounded boxes) wins
    only as the enumeration-first pair. The joined state is
    ``states[a].join(states[b])`` with ``a`` the earlier position
    (``Box.hull`` keeps the second operand on ±0 ties); both are
    removed and the join is appended.

    Incremental: centers and pair distances are computed once per
    call. A join changes only its own cluster, so only that cluster's
    best pair is recomputed. Every state gets a slot number in list
    order; deletions and appends keep the list in slot order, so slots
    order pairs exactly as positions do.
    """
    distinct = len(symbolic_set.commands())
    if threshold < distinct:
        raise ValueError(
            f"threshold {threshold} below the {distinct} distinct commands "
            "present; no sequence of joins can reach it (Remark 3)"
        )
    states = symbolic_set.states
    if len(states) <= threshold:
        return 0
    slots = list(range(len(states)))
    centers = [_center(s.box) for s in states]
    clusters = symbolic_set.group_by_command()
    dist: dict[tuple[int, int], float] = {}
    best = {c: _cluster_best(m, centers, dist) for c, m in clusters.items()}
    joins = 0
    while len(states) > threshold:
        # Clusters that still have a pair, in first-appearance order.
        order = sorted((m[0], c) for c, m in clusters.items() if len(m) > 1)
        first = clusters[order[0][1]]
        a, b = first[0], first[1]
        if dist[a, b] == dist[a, b]:
            # Unless the enumeration-first pair is NaN (then it wins:
            # nothing compares below it), take the first strict minimum
            # of the clusters' bests; min() keeps the first equal key.
            found = [best[c] for _, c in order]
            _, a, b = min(
                (f for f in found if f is not None), key=lambda f: f[0]
            )
        i = bisect_left(slots, a)
        j = bisect_left(slots, b)
        joined = states[i].join(states[j])
        del states[j]
        del states[i]
        del slots[j]
        del slots[i]
        slots.append(len(centers))
        states.append(joined)
        centers.append(_center(joined.box))
        members = clusters[joined.command]
        members.remove(a)
        members.remove(b)
        members.append(slots[-1])
        best[joined.command] = _cluster_best(members, centers, dist)
        joins += 1
    return joins


def _center(box: Box) -> list[float]:
    """``box.center`` in Python floats, bit for bit: ``np.clip(m, lo,
    hi)`` is ``m if (m != m or m > lo) else lo``, then the same with
    ``<`` against ``hi`` (also on ±0, ±inf and NaN)."""
    out = []
    for lo, hi in zip(box.lo.tolist(), box.hi.tolist()):
        m = 0.5 * (lo + hi)
        m = m if (m != m or m > lo) else lo
        out.append(m if (m != m or m < hi) else hi)
    return out


def _distance_sq(p: list[float], q: list[float]) -> float:
    """Definition 9 on two centers: squared differences summed left to
    right (``Box.center_distance_sq``'s ``np.sum`` agrees below 8
    dimensions)."""
    x = p[0] - q[0]
    d = x * x
    for k in range(1, len(p)):
        x = p[k] - q[k]
        d = d + x * x
    return d


def _cluster_best(
    members: list[int],
    centers: list[list[float]],
    dist: dict[tuple[int, int], float],
) -> tuple[float, int, int] | None:
    """The cluster's first strict minimum over its non-NaN pairs, in
    list order, or None when it has no such pair. Distances missing
    from ``dist`` are computed and cached."""
    found = None
    for x, a in enumerate(members):
        for b in members[x + 1 :]:
            d = dist.get((a, b))
            if d is None:
                d = dist[a, b] = _distance_sq(centers[a], centers[b])
            if d == d and (found is None or d < found[0]):
                found = (d, a, b)
    return found

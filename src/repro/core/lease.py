"""Deterministic sharding and lease-based shard ownership.

The distributed campaign layer splits one partition into *shards* —
stable groups of cells — and tracks each shard's ownership as a
*lease*: a grant to one node, under one monotonically increasing
*epoch*, with a deadline that node heartbeats keep pushing forward.
The coordinator (:mod:`repro.core.coordinator`) drives this table; the
table itself is pure bookkeeping (time is always passed in), so every
recovery rule — expiry, backoff, epoch fencing, work stealing — is
unit-testable without sockets or clocks.

**Sharding is content-derived.** A cell's shard comes from hashing its
:func:`~repro.core.checkpoint._cell_key` geometry key, so the same
partition always shards the same way — across coordinator restarts,
across host counts, regardless of the order cells were enumerated in.
Shard ids are therefore stable names (``shard-7``) that fault specs
(``node-crash:shard-7``) and logs can target deterministically.

**Leases, not assignments.** A node owns a shard only while its lease
is live. Missed heartbeats or a dropped connection *expire* the lease:
the shard enters a cooling-off window (exponential backoff — a node
that died under memory pressure tends to take its replacement down
too if the work bounces back instantly) and is then *claimable* by any
idle node. Each grant increments the shard's epoch; a result frame is
accepted only if it carries the currently leased epoch, which is what
makes a zombie node — one that kept computing through a netsplit and
reconnected — harmlessly late rather than silently corrupting: every
frame from its stale epoch is fenced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Lease",
    "LeaseTable",
    "Shard",
    "assign_shards",
    "shard_index",
]


def shard_index(cell_key: str, num_shards: int) -> int:
    """The shard a cell belongs to: a stable hash of its geometry key.

    SHA-256 rather than ``hash()`` so the mapping is identical across
    processes, hosts and Python versions (``PYTHONHASHSEED`` varies;
    campaign shards must not).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    digest = hashlib.sha256(cell_key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass(frozen=True)
class Shard:
    """A stable group of cells, addressed by partition index."""

    shard_id: str
    #: Indices into the campaign's cell sequence, in partition order.
    indices: tuple[int, ...]


def assign_shards(keys: Sequence[str], num_shards: int) -> list[Shard]:
    """Split ``keys`` (one geometry key per cell, in partition order)
    into at most ``num_shards`` non-empty shards, deterministically.

    ``shard-<k>`` holds every cell whose key hashes to bucket ``k``;
    empty buckets are dropped. Duplicate keys are rejected — they would
    make per-cell bookkeeping (journal replay, steal grants) ambiguous.
    """
    seen: set[str] = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"duplicate cell key: {key}")
        seen.add(key)
    buckets: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        buckets.setdefault(shard_index(key, num_shards), []).append(i)
    return [
        Shard(shard_id=f"shard-{k}", indices=tuple(buckets[k]))
        for k in sorted(buckets)
    ]


@dataclass
class Lease:
    """One live grant: ``shard_id`` is owned by ``node_id`` under
    ``epoch`` until ``deadline`` (monotonic seconds), unless renewed."""

    shard_id: str
    node_id: str
    epoch: int
    granted_at: float
    deadline: float


@dataclass
class _ShardState:
    shard: Shard
    #: Highest epoch ever granted (0 = never granted). Strictly
    #: monotonic, including across coordinator restarts (the journal
    #: replays grants so fencing stays sound after a crash).
    epoch: int = 0
    #: Times this shard's lease expired (drives the backoff exponent).
    expiries: int = 0
    #: Monotonic time before which the shard must not be regranted.
    available_at: float = 0.0
    lease: Lease | None = None
    complete: bool = False
    #: Node whose lease on this shard last expired. Used for steal
    #: anti-affinity: a silently dead node never EOFs its socket, so
    #: without this the grant loop could hand the shard straight back
    #: to the corpse forever.
    last_failed_node: str | None = None


class LeaseTable:
    """Ownership bookkeeping for every shard of one campaign.

    All methods take ``now`` (monotonic seconds) explicitly. The table
    never talks to sockets or clocks; the coordinator is the only
    writer, from its single event-loop thread.
    """

    def __init__(
        self,
        shards: Iterable[Shard],
        lease_timeout: float = 10.0,
        reassign_backoff: float = 0.5,
        max_backoff: float = 30.0,
    ):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if reassign_backoff < 0 or max_backoff < 0:
            raise ValueError("backoff values must be >= 0")
        self.lease_timeout = float(lease_timeout)
        self.reassign_backoff = float(reassign_backoff)
        self.max_backoff = float(max_backoff)
        self._shards: dict[str, _ShardState] = {}
        for shard in shards:
            if shard.shard_id in self._shards:
                raise ValueError(f"duplicate shard id: {shard.shard_id}")
            self._shards[shard.shard_id] = _ShardState(shard=shard)

    # -- introspection -------------------------------------------------
    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def shard(self, shard_id: str) -> Shard:
        return self._shards[shard_id].shard

    def lease_of(self, shard_id: str) -> Lease | None:
        return self._shards[shard_id].lease

    def node_lease(self, node_id: str) -> Lease | None:
        """The lease ``node_id`` currently holds, if any (one shard per
        node at a time — work stealing happens between shards)."""
        for state in self._shards.values():
            if state.lease is not None and state.lease.node_id == node_id:
                return state.lease
        return None

    def outstanding(self) -> int:
        """Shards not yet complete."""
        return sum(1 for s in self._shards.values() if not s.complete)

    def epoch(self, shard_id: str) -> int:
        return self._shards[shard_id].epoch

    def expiries(self, shard_id: str) -> int:
        return self._shards[shard_id].expiries

    def last_failed_node(self, shard_id: str) -> str | None:
        """The node whose lease on ``shard_id`` last expired — the one
        a steal grant should avoid when any other node is idle."""
        return self._shards[shard_id].last_failed_node

    # -- the epoch fence -----------------------------------------------
    def is_current(self, shard_id: str, node_id: str, epoch: int) -> bool:
        """True iff ``(node_id, epoch)`` is the live lease on
        ``shard_id`` — the acceptance test every result, heartbeat and
        completion frame must pass. Anything else (older epoch, a
        zombie's reconnect, a shard already completed or expired) is
        stale and must be fenced."""
        state = self._shards.get(shard_id)
        if state is None or state.lease is None:
            return False
        lease = state.lease
        return lease.node_id == node_id and lease.epoch == epoch

    # -- grants --------------------------------------------------------
    def claimable(self, now: float) -> list[str]:
        """Shards an idle node could be granted right now: never
        completed, not currently leased, past any backoff window.
        Ordered by shard id for determinism."""
        return [
            sid
            for sid, state in sorted(self._shards.items())
            if not state.complete
            and state.lease is None
            and now >= state.available_at
        ]

    def cooling(self, now: float) -> list[str]:
        """Unleased, incomplete shards still inside a backoff window —
        work that exists but must not be handed out yet."""
        return [
            sid
            for sid, state in sorted(self._shards.items())
            if not state.complete and state.lease is None and now < state.available_at
        ]

    def grant(self, shard_id: str, node_id: str, now: float) -> Lease:
        """Lease ``shard_id`` to ``node_id`` under a fresh epoch."""
        state = self._shards[shard_id]
        if state.complete:
            raise ValueError(f"{shard_id} is already complete")
        if state.lease is not None:
            raise ValueError(
                f"{shard_id} is leased to {state.lease.node_id} "
                f"(epoch {state.lease.epoch})"
            )
        if now < state.available_at:
            raise ValueError(f"{shard_id} is cooling down until {state.available_at}")
        state.epoch += 1
        state.lease = Lease(
            shard_id=shard_id,
            node_id=node_id,
            epoch=state.epoch,
            granted_at=now,
            deadline=now + self.lease_timeout,
        )
        return state.lease

    def renew(self, shard_id: str, node_id: str, epoch: int, now: float) -> bool:
        """Push the lease deadline forward (a heartbeat or result frame
        arrived). Returns False — renew *refused* — for stale frames."""
        if not self.is_current(shard_id, node_id, epoch):
            return False
        lease = self._shards[shard_id].lease
        assert lease is not None
        lease.deadline = now + self.lease_timeout
        return True

    # -- expiry and completion -----------------------------------------
    def _backoff(self, expiries: int) -> float:
        if self.reassign_backoff <= 0:
            return 0.0
        return min(self.max_backoff, self.reassign_backoff * (2 ** (expiries - 1)))

    def expire(self, shard_id: str, now: float) -> Lease | None:
        """Tear down the live lease (missed heartbeats, dropped
        connection, a ``shard_done`` with cells missing). The shard enters an
        exponentially growing cooling-off window before it becomes
        claimable again; the epoch it was leased under is dead forever.
        Returns the expired lease (None if there was none)."""
        state = self._shards[shard_id]
        lease = state.lease
        if lease is None:
            return None
        state.lease = None
        state.expiries += 1
        state.available_at = now + self._backoff(state.expiries)
        state.last_failed_node = lease.node_id
        return lease

    def expire_due(self, now: float) -> list[Lease]:
        """Expire every lease whose deadline has passed (the
        coordinator's periodic liveness sweep)."""
        expired: list[Lease] = []
        for sid, state in sorted(self._shards.items()):
            if state.lease is not None and now >= state.lease.deadline:
                expired.append(self.expire(sid, now))  # type: ignore[arg-type]
        return expired

    def expire_node(self, node_id: str, now: float) -> list[Lease]:
        """Expire every lease held by ``node_id`` (its connection
        dropped or its agent said goodbye)."""
        expired: list[Lease] = []
        for sid, state in sorted(self._shards.items()):
            if state.lease is not None and state.lease.node_id == node_id:
                expired.append(self.expire(sid, now))  # type: ignore[arg-type]
        return expired

    def complete(self, shard_id: str, node_id: str, epoch: int) -> bool:
        """Mark the shard done iff the completion comes from its live
        lease; a stale completion is fenced like any other frame."""
        if not self.is_current(shard_id, node_id, epoch):
            return False
        state = self._shards[shard_id]
        state.lease = None
        state.complete = True
        return True

    def force_complete(self, shard_id: str) -> None:
        """Completion decided by the coordinator itself (every cell of
        the shard is journaled — e.g. after a resume), regardless of
        lease state."""
        state = self._shards[shard_id]
        state.lease = None
        state.complete = True

    def restore_epoch(self, shard_id: str, epoch: int) -> None:
        """Raise the shard's epoch floor (journal replay on coordinator
        restart): grants after a crash must keep epochs strictly
        increasing or fencing would readmit pre-crash zombies."""
        state = self._shards[shard_id]
        state.epoch = max(state.epoch, epoch)

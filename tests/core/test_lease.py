"""Unit tests for deterministic sharding and the lease table — every
recovery rule (expiry, backoff, epoch fencing, stealing eligibility)
exercised with explicit clocks, no sockets anywhere."""

import pytest

from repro.core import LeaseTable, Shard, assign_shards, shard_index


def table(num_shards=3, **kwargs) -> LeaseTable:
    shards = [Shard(f"shard-{k}", (k,)) for k in range(num_shards)]
    kwargs.setdefault("lease_timeout", 10.0)
    kwargs.setdefault("reassign_backoff", 1.0)
    kwargs.setdefault("max_backoff", 8.0)
    return LeaseTable(shards, **kwargs)


class TestSharding:
    def test_shard_index_is_stable(self):
        # Pinned values: the mapping must never drift across releases,
        # or journaled fault targets like node-crash:shard-3 would move.
        assert shard_index("k0", 4) == shard_index("k0", 4)
        assert 0 <= shard_index("anything", 7) < 7

    def test_assign_is_deterministic_and_complete(self):
        keys = [f"key-{i}" for i in range(50)]
        first = assign_shards(keys, 8)
        second = assign_shards(keys, 8)
        assert first == second
        covered = sorted(i for s in first for i in s.indices)
        assert covered == list(range(50))

    def test_empty_buckets_dropped(self):
        shards = assign_shards(["only-one"], 16)
        assert len(shards) == 1
        assert shards[0].indices == (0,)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            assign_shards(["a", "b", "a"], 4)

    def test_indices_preserve_partition_order(self):
        keys = [f"key-{i}" for i in range(30)]
        for shard in assign_shards(keys, 4):
            assert list(shard.indices) == sorted(shard.indices)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_index("k", 0)


class TestGrants:
    def test_grant_increments_epoch(self):
        t = table()
        lease = t.grant("shard-0", "node-a", now=0.0)
        assert lease.epoch == 1
        assert t.is_current("shard-0", "node-a", 1)
        t.expire("shard-0", now=1.0)
        lease = t.grant("shard-0", "node-b", now=100.0)
        assert lease.epoch == 2

    def test_one_lease_per_shard(self):
        t = table()
        t.grant("shard-0", "node-a", now=0.0)
        with pytest.raises(ValueError, match="leased"):
            t.grant("shard-0", "node-b", now=0.0)

    def test_claimable_excludes_leased_cooling_complete(self):
        t = table()
        assert t.claimable(0.0) == ["shard-0", "shard-1", "shard-2"]
        t.grant("shard-0", "node-a", now=0.0)
        t.grant("shard-1", "node-b", now=0.0)
        t.complete("shard-1", "node-b", 1)
        t.expire("shard-2", now=0.0)  # no lease: no-op
        assert t.claimable(0.0) == ["shard-2"]

    def test_node_lease_lookup(self):
        t = table()
        t.grant("shard-1", "node-a", now=0.0)
        assert t.node_lease("node-a").shard_id == "shard-1"
        assert t.node_lease("node-b") is None


class TestExpiryAndBackoff:
    def test_renew_pushes_deadline(self):
        t = table(lease_timeout=10.0)
        t.grant("shard-0", "node-a", now=0.0)
        assert t.renew("shard-0", "node-a", 1, now=8.0)
        assert t.expire_due(now=15.0) == []  # deadline moved to 18
        expired = t.expire_due(now=18.0)
        assert [lease.shard_id for lease in expired] == ["shard-0"]

    def test_expired_shard_cools_then_becomes_claimable(self):
        t = table(reassign_backoff=1.0)
        t.grant("shard-0", "node-a", now=0.0)
        t.expire("shard-0", now=5.0)
        assert "shard-0" in t.cooling(5.5)
        assert "shard-0" not in t.claimable(5.5)
        with pytest.raises(ValueError, match="cooling"):
            t.grant("shard-0", "node-b", now=5.5)
        assert "shard-0" in t.claimable(6.0)

    def test_backoff_grows_exponentially_and_caps(self):
        t = table(reassign_backoff=1.0, max_backoff=8.0)
        now = 0.0
        for expected in (1.0, 2.0, 4.0, 8.0, 8.0):
            t.grant("shard-0", "node-a", now=now)
            t.expire("shard-0", now=now)
            assert "shard-0" not in t.claimable(now + expected - 0.01)
            assert "shard-0" in t.claimable(now + expected)
            now += 100.0

    def test_expire_node_tears_down_all_its_leases(self):
        t = table()
        t.grant("shard-0", "node-a", now=0.0)
        t.grant("shard-1", "node-b", now=0.0)
        expired = t.expire_node("node-a", now=1.0)
        assert [lease.shard_id for lease in expired] == ["shard-0"]
        assert t.lease_of("shard-0") is None
        assert t.lease_of("shard-1") is not None


class TestEpochFencing:
    def test_stale_epoch_is_not_current(self):
        t = table()
        t.grant("shard-0", "node-a", now=0.0)
        t.expire("shard-0", now=1.0)
        t.grant("shard-0", "node-b", now=100.0)
        # The zombie's epoch-1 frames: fenced.
        assert not t.is_current("shard-0", "node-a", 1)
        assert not t.renew("shard-0", "node-a", 1, now=100.0)
        assert not t.complete("shard-0", "node-a", 1)
        # The live holder is fine.
        assert t.is_current("shard-0", "node-b", 2)

    def test_right_epoch_wrong_node_is_fenced(self):
        t = table()
        t.grant("shard-0", "node-a", now=0.0)
        assert not t.is_current("shard-0", "node-b", 1)

    def test_unknown_shard_is_fenced(self):
        t = table()
        assert not t.is_current("shard-99", "node-a", 1)

    def test_complete_requires_live_lease(self):
        t = table()
        t.grant("shard-0", "node-a", now=0.0)
        assert t.complete("shard-0", "node-a", 1)
        assert t.outstanding() == 2
        # Completion is terminal: no regrant.
        with pytest.raises(ValueError, match="complete"):
            t.grant("shard-0", "node-b", now=1.0)

    def test_restore_epoch_keeps_fencing_sound_after_restart(self):
        """Coordinator crash recovery: journal replay raises the epoch
        floor so post-restart grants outrank pre-crash zombies."""
        t = table()
        t.restore_epoch("shard-0", 7)
        lease = t.grant("shard-0", "node-b", now=0.0)
        assert lease.epoch == 8
        assert not t.is_current("shard-0", "node-a", 7)

    def test_restore_epoch_never_lowers(self):
        t = table()
        t.grant("shard-0", "node-a", now=0.0)
        t.expire("shard-0", now=0.0)
        t.restore_epoch("shard-0", 0)
        assert t.epoch("shard-0") == 1

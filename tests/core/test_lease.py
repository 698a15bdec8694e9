"""Lease table: fenced ownership, expiry, and the stale-result rules.

Every test injects a fake clock — the table never sleeps, so neither do
the tests.  The invariants exercised here are the ones the distributed
engine's exactness rests on: a (key, fence) pair settles ``"ok"`` at
most once, tokens are strictly monotonic, and every revocation path
(expiry, worker death, re-grant) fences off the old token.
"""

import pytest

from repro.core.lease import LeaseTable
from repro.search.shard import PrefixTask


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def task(*prefix):
    return PrefixTask(prefix=tuple(prefix), fanouts=(4,) * len(prefix))


class TestGrantSettle:
    def test_grant_stamps_fence_and_settle_consumes(self):
        table = LeaseTable(duration=None)
        lease = table.grant(task(1, 2), wid=7)
        assert lease.fence == 1
        assert lease.task.fence == 1
        assert lease.task.key() == (1, 2)
        assert table.holder((1, 2)) == 7
        assert table.settle((1, 2), 1) == "ok"
        assert len(table) == 0

    def test_duplicate_settle_is_never_ok_twice(self):
        table = LeaseTable(duration=None)
        lease = table.grant(task(3), wid=0)
        assert table.settle((3,), lease.fence) == "ok"
        # A duplicated delivery of the very same result is stale: the
        # lease was consumed by the first settle.
        assert table.settle((3,), lease.fence) == "stale"

    def test_wrong_fence_is_stale_and_leaves_live_lease(self):
        table = LeaseTable(duration=None)
        lease = table.grant(task(3), wid=0)
        assert table.settle((3,), lease.fence + 5) == "stale"
        assert table.settle((3,), 0) == "stale"
        # The live lease survived the stale attempts.
        assert table.settle((3,), lease.fence) == "ok"

    def test_unknown_key_is_stale(self):
        table = LeaseTable(duration=None)
        assert table.settle((9, 9), 1) == "stale"

    def test_regrant_fences_off_earlier_token(self):
        table = LeaseTable(duration=None)
        first = table.grant(task(5), wid=1)
        second = table.grant(task(5), wid=2)
        assert second.fence > first.fence
        assert table.holder((5,)) == 2
        # The partitioned first worker reports late: refused.
        assert table.settle((5,), first.fence) == "stale"
        assert table.settle((5,), second.fence) == "ok"

    def test_fences_strictly_monotonic_across_keys(self):
        table = LeaseTable(duration=None, start_fence=40)
        fences = [table.grant(task(i), wid=0).fence for i in range(5)]
        assert fences == [40, 41, 42, 43, 44]
        assert table.next_fence == 45

    def test_key_normalised_to_tuple(self):
        table = LeaseTable(duration=None)
        lease = table.grant(task(1, 2, 3), wid=0)
        assert table.holder([1, 2, 3]) == 0
        assert table.settle([1, 2, 3], lease.fence) == "ok"


class TestExpiry:
    def test_expired_pops_past_deadline_only(self):
        clock = FakeClock()
        table = LeaseTable(duration=10.0, clock=clock)
        early = table.grant(task(1), wid=0)
        clock.advance(6.0)
        late = table.grant(task(2), wid=1)
        clock.advance(5.0)  # t=111: early (deadline 110) is out
        out = table.expired()
        assert [l.key for l in out] == [(1,)]
        assert table.settle((1,), early.fence) == "stale"
        assert table.settle((2,), late.fence) == "ok"

    def test_extend_worker_pushes_out_only_that_workers_leases(self):
        clock = FakeClock()
        table = LeaseTable(duration=10.0, clock=clock)
        table.grant(task(1), wid=0)
        table.grant(task(2), wid=1)
        clock.advance(8.0)
        table.extend_worker(0)  # heartbeat/progress from wid 0
        clock.advance(4.0)  # wid 1's lease (deadline 110) is past
        out = table.expired()
        assert [l.wid for l in out] == [1]
        assert table.holder((1,)) == 0

    def test_duration_none_never_expires_but_still_fences(self):
        clock = FakeClock()
        table = LeaseTable(duration=None, clock=clock)
        lease = table.grant(task(1), wid=0)
        clock.advance(1e9)
        assert table.expired() == []
        table.extend_worker(0)  # no-op, must not raise
        superseded = table.grant(task(1), wid=1)
        assert table.settle((1,), lease.fence) == "stale"
        assert table.settle((1,), superseded.fence) == "ok"

    def test_expiry_exactly_at_deadline(self):
        clock = FakeClock()
        table = LeaseTable(duration=10.0, clock=clock)
        table.grant(task(1), wid=0)
        clock.advance(10.0)
        assert len(table.expired()) == 1


class TestRevocation:
    def test_revoke_worker_drops_all_and_only_its_leases(self):
        table = LeaseTable(duration=None)
        a = table.grant(task(1), wid=3)
        b = table.grant(task(2), wid=3)
        c = table.grant(task(3), wid=4)
        dropped = table.revoke_worker(3)
        assert sorted(l.key for l in dropped) == [(1,), (2,)]
        assert table.settle((1,), a.fence) == "stale"
        assert table.settle((2,), b.fence) == "stale"
        assert table.settle((3,), c.fence) == "ok"
        assert table.owned_by(3) == []

    def test_revoke_single_key(self):
        table = LeaseTable(duration=None)
        lease = table.grant(task(7), wid=0)
        assert table.revoke((7,)).fence == lease.fence
        assert table.revoke((7,)) is None
        assert table.settle((7,), lease.fence) == "stale"

    def test_drain_empties_table(self):
        table = LeaseTable(duration=None)
        table.grant(task(1), wid=0)
        table.grant(task(2), wid=1)
        drained = list(table.drain())
        assert len(drained) == 2
        assert len(table) == 0

    def test_owned_by_lists_live_leases(self):
        table = LeaseTable(duration=None)
        table.grant(task(1), wid=5)
        table.grant(task(2), wid=5)
        assert sorted(l.key for l in table.owned_by(5)) == [(1,), (2,)]

    def test_owned_by_and_revoke_worker_keep_grant_order(self):
        """The coordinator blames a dead worker's *first* owed lease."""
        table = LeaseTable(duration=None)
        for prefix in (3, 1, 2):
            table.grant(task(prefix), wid=5)
        table.grant(task(9), wid=6)
        table.grant(task(3), wid=5)  # a re-grant moves to the back
        assert [l.key for l in table.owned_by(5)] == [(1,), (2,), (3,)]
        assert [l.key for l in table.revoke_worker(5)] == [(1,), (2,), (3,)]


class TestValidation:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            LeaseTable(duration=0)
        with pytest.raises(ValueError):
            LeaseTable(duration=-1.0)

    def test_rejects_start_fence_below_one(self):
        with pytest.raises(ValueError):
            LeaseTable(start_fence=0)


class TestTaskFenceRecord:
    def test_to_record_omits_zero_fence(self):
        t = task(1, 2)
        assert "fence" not in t.to_record()
        assert PrefixTask.from_record(t.to_record()) == t

    def test_to_record_round_trips_nonzero_fence(self):
        t = task(1, 2)._replace(fence=17)
        record = t.to_record()
        assert record["fence"] == 17
        assert PrefixTask.from_record(record) == t

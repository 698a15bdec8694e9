"""Unit tests for the software TLB model."""

import pytest

from repro.mem.frames import FramePool
from repro.mem.pagetable import Permission
from repro.mem.tlb import TLB, TLBEntry


def entry(pool):
    return TLBEntry(pool.alloc(), Permission.RW, writable=True)


class TestTLB:
    def test_miss_then_hit(self):
        pool = FramePool()
        tlb = TLB()
        assert tlb.lookup(5) is None
        e = entry(pool)
        tlb.insert(5, e)
        assert tlb.lookup(5) is e
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1

    def test_invalidate_single(self):
        pool = FramePool()
        tlb = TLB()
        tlb.insert(5, entry(pool))
        tlb.invalidate(5)
        assert tlb.lookup(5) is None
        assert tlb.stats.invalidations == 1

    def test_invalidate_absent_not_counted(self):
        tlb = TLB()
        tlb.invalidate(5)
        assert tlb.stats.invalidations == 0

    def test_flush_clears_all(self):
        pool = FramePool()
        tlb = TLB()
        for vpn in range(10):
            tlb.insert(vpn, entry(pool))
        tlb.flush()
        assert len(tlb) == 0
        assert tlb.stats.flushes == 1

    def test_capacity_eviction(self):
        pool = FramePool()
        tlb = TLB(capacity=4)
        for vpn in range(6):
            tlb.insert(vpn, entry(pool))
        assert len(tlb) == 4
        assert tlb.stats.evictions == 2

    def test_reinsert_same_vpn_no_eviction(self):
        pool = FramePool()
        tlb = TLB(capacity=2)
        tlb.insert(1, entry(pool))
        tlb.insert(1, entry(pool))
        assert tlb.stats.evictions == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TLB(capacity=0)


class TestForkShootdown:
    def test_fork_write_protects_and_keeps_reads(self):
        pool = FramePool()
        tlb = TLB()
        ro = TLBEntry(pool.alloc(), Permission.READ, writable=False)
        tlb.insert(1, ro)
        tlb.insert(2, entry(pool))
        child = tlb.fork()
        assert tlb.stats.flushes == 1
        for t in (tlb, child):
            assert len(t) == 2
            assert t._entries[1] is ro
            assert not t._entries[2].writable
        assert child.stats.misses == child.stats.flushes == 0

    def test_fork_is_independent(self):
        pool = FramePool()
        tlb = TLB()
        tlb.insert(1, entry(pool))
        child = tlb.fork()
        child.invalidate(1)
        child.insert(2, entry(pool))
        assert len(tlb) == 1 and 2 not in tlb._entries
        assert not tlb._entries[1].writable

    def test_evicted_writable_entry_leaves_no_worklist_entry(self):
        pool = FramePool()
        tlb = TLB(capacity=1)
        tlb.insert(1, entry(pool))
        tlb.insert(2, TLBEntry(pool.alloc(), Permission.READ, writable=False))
        tlb.fork()  # must not look up the evicted vpn 1
        assert list(tlb._entries) == [2]

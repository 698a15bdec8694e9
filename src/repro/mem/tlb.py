"""Software TLB model.

A real implementation of lightweight snapshots must keep cached
translations coherent when a snapshot is taken or restored.  Both are
copy-on-write forks, and a fork changes no mapping: it only takes write
permission away from the frames the two sides now share.  The shootdown
a fork needs is therefore a *write-protect* one (:meth:`TLB.fork`): the
parent's writable entries lose write permission, every read translation
stays, and the child starts with the same read-only entries.  Unmap and
protection changes still invalidate single pages, and freeing a space
flushes everything.  Hit/miss/flush counters feed the F2 architecture
accounting benchmark.

The TLB also gives the pure-Python simulator an important fast path: a hit
avoids the 4-level radix walk entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.mem.frames import Frame


class TLBEntry(NamedTuple):
    """A cached translation: the frame and the permissions it was cached
    under.  ``perms`` is the plain-int value of a
    :class:`~repro.mem.pagetable.Permission`, so the access checks on the
    hit path stay integer arithmetic.  ``writable`` is False for pages
    that must COW-fault on write even though their PTE says WRITE (i.e.
    shared frames)."""

    frame: Frame
    perms: int
    writable: bool


@dataclass
class TLBStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0
    invalidations: int = 0
    evictions: int = 0


class TLB:
    """A bounded translation cache with LRU-ish eviction.

    Capacity defaults to 1024 entries (a generous L2 TLB).  Eviction pops
    an arbitrary old entry via dict ordering, which approximates FIFO and
    is cheap; the simulator only needs the flush semantics to be exact,
    not the replacement policy.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, TLBEntry] = {}
        #: VPNs whose entry is ``writable``: the write-protect worklist.
        self._writable: set[int] = set()
        self.stats = TLBStats()

    def lookup(self, vpn: int) -> Optional[TLBEntry]:
        """Return the cached entry for *vpn*, or None on a miss."""
        entry = self._entries.get(vpn)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def insert(self, vpn: int, entry: TLBEntry) -> None:
        """Cache a translation, evicting if at capacity."""
        entries = self._entries
        if vpn not in entries and len(entries) >= self.capacity:
            oldest = next(iter(entries))
            del entries[oldest]
            self._writable.discard(oldest)
            self.stats.evictions += 1
        entries[vpn] = entry
        if entry.writable:
            self._writable.add(vpn)
        else:
            self._writable.discard(vpn)

    def invalidate(self, vpn: int) -> None:
        """Drop the cached translation for one page (INVLPG)."""
        if self._entries.pop(vpn, None) is not None:
            self._writable.discard(vpn)
            self.stats.invalidations += 1

    def flush(self) -> None:
        """Drop every cached translation (CR3 reload / shootdown)."""
        self._entries.clear()
        self._writable.clear()
        self.stats.flushes += 1

    def fork(self) -> "TLB":
        """Write-protect shootdown for a copy-on-write fork.

        Every writable entry loses write permission (its frame is now
        shared with the fork) and every read translation stays: Python
        work is O(writable entries), plus one C-level copy of the entry
        map for the fork.  Counts as one flush.  Returns the fork's TLB,
        warm with the same read-only entries.
        """
        entries = self._entries
        for vpn in self._writable:
            frame, perms, _ = entries[vpn]
            entries[vpn] = TLBEntry(frame, perms, False)
        self._writable.clear()
        self.stats.flushes += 1
        clone = TLB(self.capacity)
        clone._entries = entries.copy()
        return clone

    def __len__(self) -> int:
        return len(self._entries)

"""Stateful property tests for the snapshot tree.

Random interleavings of take / restore / write / discard must preserve
the core invariants, no matter what happens around them:

* every live snapshot's image equals the byte model captured when it was
  taken (COW immutability);
* the lifecycle counters never drift: ``live`` equals the number of
  snapshots taken and not yet discarded, ``peak_live`` is its high-water
  mark, and ``taken == discarded + live`` at every step;
* the observability registry and the legacy ``SnapshotStats`` attributes
  are views of the *same* numbers (the PR-1 migration contract);
* a discarded snapshot can never be restored, and a double discard is a
  typed error — the Silhouette bug-8 shape (operating on freed snapshot
  state) must be impossible to reach silently;
* every cached TLB entry is coherent with its space's page table: a fork
  keeps read translations warm, so a stale entry would otherwise read a
  sibling's bytes through the ``read_word``/``read_byte`` fast paths.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.errors import SnapshotDiscardedError
from repro.mem import AddressSpace, PAGE_SIZE, Permission
from repro.snapshot import SnapshotManager

BASE = 0x40_0000
PAGES = 6
SIZE = PAGES * PAGE_SIZE


class SnapshotInvariants(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = SnapshotManager()
        self.spaces = []          # mutable spaces: (space, model bytearray)
        self.snaps = []           # (snapshot, frozen model bytes)

    @initialize()
    def setup(self):
        space = AddressSpace(self.manager.pool, name="root")
        space.map_region(BASE, SIZE, Permission.RW)
        self.spaces = [(space, bytearray(SIZE))]
        self.snaps = []

    @rule(
        idx=st.integers(0, 63),
        offset=st.integers(0, SIZE - 1),
        data=st.binary(min_size=1, max_size=200),
    )
    def write(self, idx, offset, data):
        space, model = self.spaces[idx % len(self.spaces)]
        data = data[: SIZE - offset]
        space.write(BASE + offset, data)
        model[offset : offset + len(data)] = data

    @rule(idx=st.integers(0, 63))
    def take(self, idx):
        if len(self.snaps) >= 10:
            return
        space, model = self.spaces[idx % len(self.spaces)]
        snap = self.manager.take(space)
        self.snaps.append((snap, bytes(model)))

    @rule(idx=st.integers(0, 63))
    def restore(self, idx):
        if not self.snaps or len(self.spaces) >= 8:
            return
        snap, frozen = self.snaps[idx % len(self.snaps)]
        if not snap.alive:
            return
        _, space, _ = self.manager.restore(snap)
        self.spaces.append((space, bytearray(frozen)))

    @rule(idx=st.integers(0, 63))
    def discard(self, idx):
        if not self.snaps:
            return
        snap, _ = self.snaps[idx % len(self.snaps)]
        if not snap.alive:
            return
        self.manager.discard(snap)

    @rule(
        idx=st.integers(0, 63),
        offset=st.integers(0, SIZE - 8),
        value=st.integers(0, (1 << 64) - 1),
    )
    def fast_path_access(self, idx, offset, value):
        """Read through the TLB fast paths, then write through them."""
        space, model = self.spaces[idx % len(self.spaces)]
        addr = BASE + offset
        assert space.read_word(addr) == int.from_bytes(
            model[offset : offset + 8], "little"
        )
        assert space.read_byte(addr) == model[offset]
        space.write_word(addr, value)
        model[offset : offset + 8] = value.to_bytes(8, "little")
        space.write_byte(addr + 7, value & 0xFF)
        model[offset + 7] = value & 0xFF

    # -- lifecycle misuse must be loud, never silent -------------------

    @rule(idx=st.integers(0, 63))
    def restore_from_discarded_is_refused(self, idx):
        """The Silhouette bug-8 shape: using freed snapshot state."""
        if not self.snaps:
            return
        snap, _ = self.snaps[idx % len(self.snaps)]
        if snap.alive:
            return
        before = self.manager.stats.restored
        with pytest.raises(SnapshotDiscardedError):
            self.manager.restore(snap)
        assert self.manager.stats.restored == before

    @rule(idx=st.integers(0, 63))
    def double_discard_is_refused(self, idx):
        if not self.snaps:
            return
        snap, _ = self.snaps[idx % len(self.snaps)]
        if snap.alive:
            return
        before = self.manager.stats.discarded
        with pytest.raises(SnapshotDiscardedError):
            self.manager.discard(snap)
        assert self.manager.stats.discarded == before

    # -- invariants ----------------------------------------------------

    @invariant()
    def live_snapshots_match_their_models(self):
        for snap, frozen in self.snaps:
            if not snap.alive:
                continue
            # Spot-check three pages per snapshot per step.
            for page in (0, PAGES // 2, PAGES - 1):
                off = page * PAGE_SIZE
                assert snap.space.read(BASE + off, PAGE_SIZE) == frozen[
                    off : off + PAGE_SIZE
                ]

    @invariant()
    def spaces_match_their_models(self):
        for space, model in self.spaces:
            off = (PAGES - 1) * PAGE_SIZE
            assert space.read(BASE + off, PAGE_SIZE) == bytes(
                model[off : off + PAGE_SIZE]
            )

    @invariant()
    def tlb_entries_are_coherent(self):
        """Every cached translation names the frame the page table maps,
        and only an exclusively owned frame is cached writable."""
        spaces = [space for space, _ in self.spaces]
        spaces += [snap.space for snap, _ in self.snaps if snap.alive]
        for space in spaces:
            for vpn, entry in space.tlb._entries.items():
                pte = space.table.lookup(vpn)
                assert pte is not None
                assert entry.frame is pte.frame
                if entry.writable:
                    assert entry.frame.refcount == 1

    @invariant()
    def lifecycle_counters_never_drift(self):
        stats = self.manager.stats
        alive = sum(1 for snap, _ in self.snaps if snap.alive)
        assert stats.live == alive
        assert stats.taken == len(self.snaps)
        assert stats.taken == stats.discarded + stats.live
        assert stats.peak_live >= stats.live
        assert stats.restored >= 0

    @invariant()
    def registry_equals_legacy_stats(self):
        """The registry metrics ARE the legacy fields, not a copy."""
        stats = self.manager.stats
        metrics = self.manager.registry.as_dict()
        assert metrics["snapshot.taken"] == stats.taken
        assert metrics["snapshot.restored"] == stats.restored
        assert metrics["snapshot.discarded"] == stats.discarded
        assert metrics["snapshot.live"] == stats.live
        assert metrics["snapshot.peak_live"] == stats.peak_live
        # peak is maintained by the gauge itself, not by caller max().
        assert metrics["snapshot.live.peak"] == stats.peak_live

    def teardown(self):
        for snap, _ in self.snaps:
            if snap.alive:
                self.manager.discard(snap)
        for space, _ in self.spaces:
            space.free()
        assert self.manager.pool.live_frames <= 1  # zero frame only
        assert self.manager.stats.live == 0


SnapshotInvariants.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestSnapshotInvariants = SnapshotInvariants.TestCase

"""Versioned copy-on-write file layer with crash simulation.

Each partial candidate includes "a logical copy of open disk files"
(§4).  This layer realises that with **two** stacked views per file:

* a *flushed* view — refcounted :class:`FileData` inodes holding what a
  crash could never lose (COW-shared across forks, copied only when a
  flush mutates a shared inode); and
* a *volatile* view — a block-granular page cache of unflushed writes,
  private to each :class:`FileTable` fork, recorded as an append-only
  operation log.

Writes land in the volatile view; ``fsync(fd)`` is a per-inode barrier
that moves that inode's pending blocks (and its creation record) into
the flushed view, and ``sync`` is a global barrier that also flushes
namespace operations (creates and renames).  This fixes the fork-based
strawman's flaw that "changes made to files are visible to other
processes" (§3): siblings never see each other's writes, flushed *or*
pending.

The split is what makes crash states first-class (docs/CRASH.md): the
legal on-disk images after a crash at log index ``c`` are exactly the
durable base (everything a barrier within ``log[:c]`` covered) plus any
per-block *seq-prefix* of the leftover pending records, with each
pending namespace record independently applied or lost.
:meth:`FileTable.crash_select` / :meth:`~FileTable.crash_opts` /
:meth:`~FileTable.crash_set` / :meth:`~FileTable.crash_commit` expose
that enumeration to guests as the ``sys_crash_*`` system calls, so a
backtracking search can fork over every legal crash image and run
recovery/checker code against each one.

The :class:`HostFS` is the immutable backing store (the host filesystem
as the libOS sees it); its files are durable from the start.  Guests
materialise private COW copies on open.

Operation-log record formats (tuples, ``seq`` is a per-table counter)::

    ("write",  seq, ino, block, off, data)   # one record per block touched
    ("create", seq, path, ino)
    ("rename", seq, src, dst, ino)
    ("fsync",  seq, ino)                     # barrier markers
    ("sync",   seq)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.interpose.policy import (
    AuditLog,
    Containment,
    InterpositionPolicy,
    PermissivePolicy,
    Verdict,
)

EBADF = 9
EACCES = 13
ENOENT = 2
EINVAL = 22

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 64
_ACCMODE = 3

DEFAULT_BLOCK_SIZE = 4096


class HostFS:
    """Immutable host-side backing files (path -> initial contents).

    ``block_size`` is the persistence granularity of the file layer
    built over this store: pending writes are recorded per block, and a
    crash may tear a multi-block write at block boundaries but never
    within a block (block-write atomicity, the standard disk model).
    """

    def __init__(self, files: Optional[dict[str, bytes]] = None,
                 block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._files = dict(files or {})
        self.block_size = block_size

    def add(self, path: str, data: bytes) -> None:
        self._files[path] = bytes(data)

    def get(self, path: str) -> Optional[bytes]:
        return self._files.get(path)

    def __contains__(self, path: str) -> bool:
        return path in self._files

    def snapshot_files(self) -> dict[str, bytes]:
        """A picklable copy of the backing files (cluster shipping)."""
        return dict(self._files)


@dataclass
class FileStats:
    """Aggregate file-layer counters, shared by every fork of a table
    (like the audit log): accounting, not per-path state, so it is not
    rolled back with snapshots."""

    cow_bytes: int = 0          #: bytes physically copied (COW + overlay)
    records: int = 0            #: oplog records appended
    fsyncs: int = 0
    syncs: int = 0
    renames: int = 0
    flushed_records: int = 0    #: pending records retired by barriers
    crash_selects: int = 0
    crash_commits: int = 0

    def as_dict(self) -> dict:
        return {
            "cow_bytes": self.cow_bytes,
            "records": self.records,
            "fsyncs": self.fsyncs,
            "syncs": self.syncs,
            "renames": self.renames,
            "flushed_records": self.flushed_records,
            "crash_selects": self.crash_selects,
            "crash_commits": self.crash_commits,
        }


class FileData:
    """Refcounted *flushed* contents of one inode (copied when a
    barrier must mutate a shared inode)."""

    __slots__ = ("data", "refcount", "ino")

    def __init__(self, data: bytes = b"", ino: int = 0):
        self.data = bytearray(data)
        self.refcount = 1
        self.ino = ino


@dataclass
class _OpenFile:
    """Per-table fd state (position is private; contents live in the
    table's inode/overlay maps, keyed by ino)."""

    path: str
    ino: int
    pos: int
    writable: bool


class _CrashPrep:
    """A prepared crash point: durable base + persistence dimensions.

    ``dims`` is immutable after :meth:`FileTable.crash_select` and is
    shared across forks; ``choices`` is per-fork (the search guesses a
    choice per dimension down different branches).
    """

    __slots__ = ("point", "durable_ns", "durable_data", "dims", "choices")

    def __init__(self, point, durable_ns, durable_data, dims, choices):
        self.point = point
        self.durable_ns = durable_ns
        self.durable_data = durable_data
        self.dims = dims
        self.choices = choices

    def fork(self) -> "_CrashPrep":
        return _CrashPrep(self.point, self.durable_ns, self.durable_data,
                          self.dims, list(self.choices))


# ----------------------------------------------------------------------
# The persistence model: durable state as a function of the log
# ----------------------------------------------------------------------


def apply_write(data: dict[int, bytearray], rec: tuple,
                block_size: int) -> None:
    """Apply one ``write`` record to a durable image (zero-extending)."""
    _, _seq, ino, block, off, payload = rec
    buf = data.setdefault(ino, bytearray())
    start = block * block_size + off
    end = start + len(payload)
    if end > len(buf):
        buf.extend(bytes(end - len(buf)))
    buf[start:end] = payload


def apply_ns(ns: dict[str, int], rec: tuple) -> None:
    """Apply one namespace record (``create``/``rename``) to *ns*."""
    if rec[0] == "create":
        ns[rec[2]] = rec[3]
    else:  # rename
        _, _seq, src, dst, ino = rec
        ns.pop(src, None)
        ns[dst] = ino


def replay_durable(
    log: Iterable[tuple],
    base_ns: dict[str, int],
    base_data: dict[int, bytes],
    upto: int,
    block_size: int,
) -> tuple[dict[str, int], dict[int, bytearray], list[tuple]]:
    """Durable state after a crash when ``log[:upto]`` has been issued.

    Walks the log applying *only* what barriers covered: ``fsync(ino)``
    retires that inode's pending data records and its creation record;
    ``sync`` retires everything pending, in seq order.  Returns
    ``(ns, data, pending)`` — the guaranteed-durable namespace and
    contents, plus the leftover *at-risk* records in seq order (issued
    before the crash but covered by no barrier; a crash may persist any
    legal subset of them, see :func:`crash_dimensions`).
    """
    ns = dict(base_ns)
    data = {ino: bytearray(b) for ino, b in base_data.items()}
    pend_data: dict[int, list[tuple]] = {}
    pend_ns: list[tuple] = []
    for rec in list(log)[:upto]:
        kind = rec[0]
        if kind == "write":
            pend_data.setdefault(rec[2], []).append(rec)
        elif kind in ("create", "rename"):
            pend_ns.append(rec)
        elif kind == "fsync":
            ino = rec[2]
            for w in pend_data.pop(ino, ()):
                apply_write(data, w, block_size)
            kept = []
            for r in pend_ns:
                if r[0] == "create" and r[3] == ino:
                    apply_ns(ns, r)
                else:
                    kept.append(r)
            pend_ns = kept
        elif kind == "sync":
            flushed = pend_ns + [
                w for recs in pend_data.values() for w in recs
            ]
            for r in sorted(flushed, key=lambda r: r[1]):
                if r[0] == "write":
                    apply_write(data, r, block_size)
                else:
                    apply_ns(ns, r)
            pend_data = {}
            pend_ns = []
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown record kind {kind!r}")
    pending = sorted(
        pend_ns + [w for recs in pend_data.values() for w in recs],
        key=lambda r: r[1],
    )
    return ns, data, pending


def crash_dimensions(pending: list[tuple]) -> tuple:
    """Group at-risk records into independent persistence dimensions.

    Data records group by ``(ino, block)``: the disk may persist any
    *seq-prefix* of a block's pending records (later writes to a block
    cannot land without the earlier ones — the cache writes back whole
    blocks), so a dimension with ``m`` records has ``m + 1`` options.
    Each namespace record is its own two-option dimension (lost or
    applied).  Dimensions are ordered by the seq of their first record —
    a property of the log alone, so every engine and every resumed
    worker enumerates identically.
    """
    index: dict[tuple, list[tuple]] = {}
    for rec in pending:
        if rec[0] == "write":
            key = ("blk", rec[2], rec[3])
        else:
            key = ("ns", rec[1])
        index.setdefault(key, []).append(rec)
    return tuple((key, tuple(recs)) for key, recs in index.items())


def dimension_options(dim: tuple) -> int:
    """Number of legal choices for one dimension."""
    key, recs = dim
    return len(recs) + 1 if key[0] == "blk" else 2


def chosen_records(dims: tuple, choices: list[int]) -> list[tuple]:
    """The records a crash image persists, given a choice per dimension
    (seq order, ready to apply over the durable base)."""
    applied: list[tuple] = []
    for (key, recs), k in zip(dims, choices):
        if key[0] == "blk":
            applied.extend(recs[:k])
        elif k:
            applied.extend(recs)
    applied.sort(key=lambda r: r[1])
    return applied


# ----------------------------------------------------------------------


class FileTable:
    """A guest's view of its files, forkable in O(open files + dirty
    blocks).

    Forking copies the fd table, the name->ino namespace and the
    volatile overlay, but shares every flushed :class:`FileData` inode;
    a barrier that must mutate a shared inode copies it first.  The
    overlay copy is what keeps the paper's isolation property intact
    for *unflushed* state too: siblings never observe each other's
    pending blocks.
    """

    def __init__(
        self,
        hostfs: Optional[HostFS] = None,
        policy: Optional[InterpositionPolicy] = None,
        audit: Optional[AuditLog] = None,
        stats: Optional[FileStats] = None,
    ):
        self.hostfs = hostfs if hostfs is not None else HostFS()
        self.policy = policy if policy is not None else PermissivePolicy()
        self.audit = audit if audit is not None else AuditLog()
        self.stats = stats if stats is not None else FileStats()
        self.block_size = self.hostfs.block_size
        self._fds: dict[int, _OpenFile] = {}
        #: This path's view of the namespace (includes pending creates
        #: and renames; the durable namespace is ``_base_ns`` + log).
        self._namespace: dict[str, int] = {}
        #: Flushed contents per inode (COW-shared across forks).
        self._inodes: dict[int, FileData] = {}
        #: Unflushed merged view per inode (flushed + pending applied).
        self._working: dict[int, bytearray] = {}
        #: Pending (unflushed) write records per inode, in seq order.
        self._pending: dict[int, list[tuple]] = {}
        #: Every record since the last rebase (crash commit), in order.
        self._oplog: list[tuple] = []
        #: Durable state at log start: path->ino and ino->contents.
        self._base_ns: dict[str, int] = {}
        self._base: dict[int, bytes] = {}
        self._crash: Optional[_CrashPrep] = None
        self._next_fd = 3  # 0-2 are stdio, handled by the console
        self._next_ino = 1
        self._next_seq = 0
        #: Bytes physically copied by this table (cost accounting).
        self.cow_bytes = 0
        # Materialise the backing store eagerly (sorted, so inode
        # numbering is a function of the store alone): backing files are
        # durable from the start, and crash images must include them
        # even when the guest never opened them.
        for path, backing in sorted(self.hostfs.snapshot_files().items()):
            ino = self._alloc_ino(backing)
            self._namespace[path] = ino
            self._base_ns[path] = ino

    # ------------------------------------------------------------------
    # Forking
    # ------------------------------------------------------------------

    def fork_cow(self) -> "FileTable":
        """Logical copy: shared flushed inodes, private overlay/positions.

        Built without ``__init__``, which would re-materialise every
        backing file only for the copies to be thrown away.
        """
        clone = FileTable.__new__(FileTable)
        clone.hostfs = self.hostfs
        clone.policy = self.policy
        clone.audit = self.audit
        clone.stats = self.stats
        clone.block_size = self.block_size
        clone._fds = fds = {}
        for fd, of in self._fds.items():
            fds[fd] = _OpenFile(of.path, of.ino, of.pos, of.writable)
        clone._namespace = self._namespace.copy()
        for fdata in self._inodes.values():
            fdata.refcount += 1
        clone._inodes = self._inodes.copy()
        clone._working = working = {}
        copied = 0
        for ino, work in self._working.items():
            working[ino] = bytearray(work)
            copied += len(work)
        clone.cow_bytes = copied
        self.stats.cow_bytes += copied
        clone._pending = pending = {}
        for ino, recs in self._pending.items():
            pending[ino] = list(recs)
        clone._oplog = self._oplog.copy()
        clone._base_ns = self._base_ns.copy()
        clone._base = self._base.copy()  # immutable bytes, shared
        clone._crash = self._crash.fork() if self._crash is not None else None
        clone._next_fd = self._next_fd
        clone._next_ino = self._next_ino
        clone._next_seq = self._next_seq
        return clone

    def free(self) -> None:
        """Drop all references held by this table."""
        for fdata in self._inodes.values():
            fdata.refcount -= 1
        self._inodes.clear()
        self._fds.clear()
        self._namespace.clear()
        self._working.clear()
        self._pending.clear()
        self._oplog.clear()

    def _own(self, ino: int) -> FileData:
        """Make *ino*'s flushed block exclusive to this table (COW)."""
        fdata = self._inodes[ino]
        if fdata.refcount == 1:
            return fdata
        fresh = FileData(bytes(fdata.data), ino=ino)
        fdata.refcount -= 1
        self._inodes[ino] = fresh
        self.cow_bytes += len(fresh.data)
        self.stats.cow_bytes += len(fresh.data)
        return fresh

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _log(self, rec: tuple) -> None:
        self._oplog.append(rec)
        self.stats.records += 1

    def _alloc_ino(self, initial: bytes) -> int:
        ino = self._next_ino
        self._next_ino += 1
        self._inodes[ino] = FileData(initial, ino=ino)
        self._base[ino] = bytes(initial)
        return ino

    def _view(self, ino: int):
        """Merged contents: overlay when dirty, else flushed."""
        if ino in self._working:
            return self._working[ino]
        return self._inodes[ino].data

    # ------------------------------------------------------------------
    # POSIX-ish operations (return value >= 0, or -errno)
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int) -> int:
        errno = self.policy.check_open(path, flags)
        if errno is not None:
            self.audit.note("open", path, Verdict.DENY)
            return -errno
        if path in self._namespace:
            ino = self._namespace[path]
        else:
            backing = self.hostfs.get(path)
            if backing is None:
                if not flags & O_CREAT:
                    self.audit.note("open", f"{path} (ENOENT)", Verdict.DENY)
                    return -ENOENT
                ino = self._alloc_ino(b"")
                self._namespace[path] = ino
                # A fresh file exists only in the page cache until its
                # creation record is flushed (fsync of the file, or sync).
                self._log(("create", self._seq(), path, ino))
            else:
                # Backing file added to the HostFS after this table was
                # built: materialise it late, still durable from birth.
                ino = self._alloc_ino(backing)
                self._namespace[path] = ino
                self._base_ns[path] = ino
        fd = self._next_fd
        self._next_fd += 1
        writable = (flags & _ACCMODE) in (O_WRONLY, O_RDWR)
        self._fds[fd] = _OpenFile(path, ino, 0, writable)
        self.audit.note("open", path, Verdict.ALLOW, Containment.COW)
        return fd

    def close(self, fd: int) -> int:
        of = self._fds.pop(fd, None)
        if of is None:
            return -EBADF
        self.audit.note("close", of.path, Verdict.ALLOW)
        return 0

    def read(self, fd: int, n: int) -> bytes | int:
        of = self._fds.get(fd)
        if of is None:
            return -EBADF
        # Reads merge the flushed and volatile views: a range spanning a
        # flushed block and an unflushed appended block comes back
        # stitched (regression: tests/libos/test_files.py).
        view = self._view(of.ino)
        data = bytes(view[of.pos : of.pos + n])
        of.pos += len(data)
        self.audit.note("read", f"{of.path} {len(data)}B", Verdict.ALLOW)
        return data

    def write(self, fd: int, data: bytes) -> int:
        of = self._fds.get(fd)
        if of is None:
            return -EBADF
        if not of.writable:
            self.audit.note("write", f"{of.path} (RO)", Verdict.DENY)
            return -EACCES
        if not data:
            return 0
        ino = of.ino
        work = self._working.get(ino)
        if work is None:
            base = self._inodes[ino].data
            work = bytearray(base)
            self._working[ino] = work
            self.cow_bytes += len(base)
            self.stats.cow_bytes += len(base)
        end = of.pos + len(data)
        if end > len(work):
            work.extend(bytes(end - len(work)))
        work[of.pos : end] = data
        # Record the write block-granularly: a multi-block write becomes
        # several records, so a crash can tear it at block boundaries.
        bs = self.block_size
        pend = self._pending.setdefault(ino, [])
        off = 0
        while off < len(data):
            block, boff = divmod(of.pos + off, bs)
            chunk = bytes(data[off : off + bs - boff])
            rec = ("write", self._seq(), ino, block, boff, chunk)
            self._log(rec)
            pend.append(rec)
            off += len(chunk)
        of.pos = end
        self.audit.note(
            "write", f"{of.path} {len(data)}B", Verdict.ALLOW, Containment.COW
        )
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int) -> int:
        of = self._fds.get(fd)
        if of is None:
            return -EBADF
        if whence == 0:
            pos = offset
        elif whence == 1:
            pos = of.pos + offset
        elif whence == 2:
            # SEEK_END is against the *merged* size: unflushed appended
            # blocks count (regression: tests/libos/test_files.py).
            pos = len(self._view(of.ino)) + offset
        else:
            return -EINVAL
        if pos < 0:
            return -EINVAL
        of.pos = pos
        return pos

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------

    def _flush_ino(self, ino: int) -> int:
        """Retire *ino*'s pending records into the flushed view."""
        pend = self._pending.pop(ino, None)
        count = 0
        if pend:
            fdata = self._own(ino)
            bs = self.block_size
            for rec in pend:
                _, _seq, _ino, block, off, payload = rec
                start = block * bs + off
                end = start + len(payload)
                if end > len(fdata.data):
                    fdata.data.extend(bytes(end - len(fdata.data)))
                fdata.data[start:end] = payload
            count = len(pend)
        self._working.pop(ino, None)
        self.stats.flushed_records += count
        return count

    def fsync(self, fd: int) -> int:
        """Per-inode barrier: this file's pending blocks — and, like a
        journalling filesystem, its creation record — become durable.
        Renames stay volatile until ``sync`` (directory-level barrier).

        Returns the number of data records flushed (>= 0), or -errno.
        """
        of = self._fds.get(fd)
        if of is None:
            return -EBADF
        flushed = self._flush_ino(of.ino)
        self._log(("fsync", self._seq(), of.ino))
        self.stats.fsyncs += 1
        self.audit.note("fsync", f"{of.path} {flushed} rec", Verdict.ALLOW,
                        Containment.COW)
        return flushed

    def sync(self) -> int:
        """Global barrier: every pending record — data and namespace
        (creates *and* renames) — becomes durable.

        Returns the number of data records flushed.
        """
        flushed = 0
        for ino in sorted(self._pending):
            flushed += self._flush_ino(ino)
        # Namespace records become durable too; the authoritative replay
        # happens in replay_durable, keyed off this log marker (_base_ns
        # itself stays frozen at the log-start state until a rebase).
        self._log(("sync", self._seq()))
        self.stats.syncs += 1
        self.audit.note("sync", f"{flushed} rec", Verdict.ALLOW,
                        Containment.COW)
        return flushed

    def rename(self, src: str, dst: str) -> int:
        """Move *src* to *dst* in the volatile namespace; durable only
        after ``sync`` (the classic rename-without-dir-sync hazard)."""
        ino = self._namespace.get(src)
        if ino is None:
            self.audit.note("rename", f"{src} (ENOENT)", Verdict.DENY)
            return -ENOENT
        del self._namespace[src]
        self._namespace[dst] = ino
        self._log(("rename", self._seq(), src, dst, ino))
        self.stats.renames += 1
        self.audit.note("rename", f"{src} -> {dst}", Verdict.ALLOW,
                        Containment.COW)
        return 0

    # ------------------------------------------------------------------
    # Crash simulation (the sys_crash_* surface)
    # ------------------------------------------------------------------

    def crash_select(self, point: int) -> int:
        """Prepare a crash after the first *point* log records were
        issued.  Returns the number of persistence dimensions (each to
        be fixed with :meth:`crash_set`), or -EINVAL."""
        if not 0 <= point <= len(self._oplog):
            return -EINVAL
        ns, data, pending = replay_durable(
            self._oplog, self._base_ns, self._base, point, self.block_size
        )
        dims = crash_dimensions(pending)
        self._crash = _CrashPrep(
            point, ns, {ino: bytes(b) for ino, b in data.items()},
            dims, [0] * len(dims),
        )
        self.stats.crash_selects += 1
        self.audit.note("crash_select", f"@{point} {len(dims)} dim",
                        Verdict.ALLOW, Containment.COW)
        return len(dims)

    def crash_opts(self, i: int) -> int:
        """Number of legal choices for dimension *i*, or -EINVAL."""
        if self._crash is None or not 0 <= i < len(self._crash.dims):
            return -EINVAL
        return dimension_options(self._crash.dims[i])

    def crash_set(self, i: int, k: int) -> int:
        """Fix dimension *i* to option *k* (how many of its pending
        records the crash image keeps), or -EINVAL."""
        if self._crash is None or not 0 <= i < len(self._crash.dims):
            return -EINVAL
        if not 0 <= k < dimension_options(self._crash.dims[i]):
            return -EINVAL
        self._crash.choices[i] = k
        return 0

    def crash_commit(self) -> int:
        """Materialise the selected crash image and *become* it.

        All fds are dropped (the crash "closed" them), the overlay and
        log are cleared, and the table rebases onto the crashed image —
        exactly what a remount sees.  Returns the number of at-risk
        records the image kept, or -EINVAL without a prior select.
        """
        prep = self._crash
        if prep is None:
            return -EINVAL
        applied = chosen_records(prep.dims, prep.choices)
        ns = dict(prep.durable_ns)
        data = {ino: bytearray(b) for ino, b in prep.durable_data.items()}
        for rec in applied:
            if rec[0] == "write":
                apply_write(data, rec, self.block_size)
            else:
                apply_ns(ns, rec)
        for fdata in self._inodes.values():
            fdata.refcount -= 1
        self._inodes = {}
        self._fds.clear()
        self._working.clear()
        self._pending.clear()
        self._oplog = []
        self._namespace = {}
        self._base_ns = {}
        self._base = {}
        for path, ino in ns.items():
            content = bytes(data.get(ino, b""))
            self._namespace[path] = ino
            self._base_ns[path] = ino
            if ino not in self._inodes:
                self._inodes[ino] = FileData(content, ino=ino)
                self._base[ino] = content
        self._crash = None
        self.stats.crash_commits += 1
        self.audit.note("crash_commit", f"{len(applied)} rec kept",
                        Verdict.ALLOW, Containment.COW)
        return len(applied)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def contents(self, path: str) -> Optional[bytes]:
        """This path's merged view of *path* (None if not present)."""
        ino = self._namespace.get(path)
        return bytes(self._view(ino)) if ino is not None else None

    def durable_contents(self, path: str) -> Optional[bytes]:
        """What *path* is guaranteed to hold after a crash right now
        (barrier-covered state only; None if not durably present)."""
        ns, data, _pending = replay_durable(
            self._oplog, self._base_ns, self._base,
            len(self._oplog), self.block_size,
        )
        ino = ns.get(path)
        return bytes(data.get(ino, b"")) if ino is not None else None

    def durable_paths(self) -> list[str]:
        ns, _data, _pending = replay_durable(
            self._oplog, self._base_ns, self._base,
            len(self._oplog), self.block_size,
        )
        return sorted(ns)

    def paths(self) -> list[str]:
        return sorted(self._namespace)

    @property
    def oplog(self) -> tuple:
        """The operation log since the last rebase (read-only)."""
        return tuple(self._oplog)

    def crash_dims(self) -> Optional[list[dict]]:
        """Describe the prepared crash's dimensions (None w/o select)."""
        if self._crash is None:
            return None
        out = []
        for key, recs in self._crash.dims:
            if key[0] == "blk":
                out.append({
                    "kind": "block", "ino": key[1], "block": key[2],
                    "options": len(recs) + 1,
                    "seqs": [r[1] for r in recs],
                })
            else:
                rec = recs[0]
                out.append({
                    "kind": rec[0], "seq": rec[1], "options": 2,
                    "detail": rec[2:],
                })
        return out

    def open_fds(self) -> list[int]:
        return sorted(self._fds)

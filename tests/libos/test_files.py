"""Unit tests for the copy-on-write file layer."""

import pytest

from repro.interpose import PermissivePolicy, SoundMinimalPolicy
from repro.libos.files import (
    EACCES,
    EBADF,
    ENOENT,
    FileData,
    FileTable,
    HostFS,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
)


@pytest.fixture
def hostfs():
    return HostFS({"/etc/config": b"key=value\n", "/data/input": b"0123456789"})


@pytest.fixture
def table(hostfs):
    return FileTable(hostfs, PermissivePolicy())


class TestOpenClose:
    def test_open_backing_file(self, table):
        fd = table.open("/etc/config", O_RDONLY)
        assert fd >= 3
        assert table.read(fd, 100) == b"key=value\n"

    def test_open_missing_enoent(self, table):
        assert table.open("/nope", O_RDONLY) == -ENOENT

    def test_create_missing(self, table):
        fd = table.open("/new", O_RDWR | O_CREAT)
        assert fd >= 3
        assert table.read(fd, 10) == b""

    def test_fds_unique(self, table):
        a = table.open("/etc/config", O_RDONLY)
        b = table.open("/etc/config", O_RDONLY)
        assert a != b

    def test_close(self, table):
        fd = table.open("/etc/config", O_RDONLY)
        assert table.close(fd) == 0
        assert table.read(fd, 1) == -EBADF

    def test_close_bad_fd(self, table):
        assert table.close(99) == -EBADF


class TestReadWrite:
    def test_sequential_reads_advance(self, table):
        fd = table.open("/data/input", O_RDONLY)
        assert table.read(fd, 4) == b"0123"
        assert table.read(fd, 4) == b"4567"
        assert table.read(fd, 4) == b"89"
        assert table.read(fd, 4) == b""

    def test_write_to_readonly_fd_denied(self, table):
        fd = table.open("/data/input", O_RDONLY)
        assert table.write(fd, b"x") == -EACCES

    def test_write_and_readback(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        assert table.write(fd, b"hello") == 5
        table.lseek(fd, 0, 0)
        assert table.read(fd, 5) == b"hello"

    def test_write_extends_file(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.lseek(fd, 10, 0)
        table.write(fd, b"x")
        assert table.contents("/out") == bytes(10) + b"x"

    def test_write_does_not_touch_hostfs(self, table, hostfs):
        fd = table.open("/data/input", O_RDWR)
        table.write(fd, b"XXX")
        assert hostfs.get("/data/input") == b"0123456789"
        assert table.contents("/data/input")[:3] == b"XXX"

    def test_lseek_whence(self, table):
        fd = table.open("/data/input", O_RDONLY)
        assert table.lseek(fd, 2, 0) == 2
        assert table.lseek(fd, 3, 1) == 5
        assert table.lseek(fd, -1, 2) == 9
        assert table.lseek(fd, 0, 9) == -22  # EINVAL
        assert table.lseek(fd, -100, 0) == -22


class TestForkCow:
    def test_fork_sees_parent_content(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"base")
        child = table.fork_cow()
        assert child.contents("/out") == b"base"

    def test_child_write_invisible_to_parent(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"base")
        child = table.fork_cow()
        child.lseek(fd, 0, 0)
        child.write(fd, b"CHILD")
        assert table.contents("/out") == b"base"
        assert child.contents("/out") == b"CHILD"

    def test_parent_write_invisible_to_child(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"base")
        child = table.fork_cow()
        table.lseek(fd, 0, 0)
        table.write(fd, b"PAR!")
        assert child.contents("/out") == b"base"

    def test_sibling_isolation(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"....")
        a = table.fork_cow()
        b = table.fork_cow()
        a.lseek(fd, 0, 0)
        a.write(fd, b"AAAA")
        b.lseek(fd, 0, 0)
        b.write(fd, b"BBBB")
        assert a.contents("/out") == b"AAAA"
        assert b.contents("/out") == b"BBBB"
        assert table.contents("/out") == b"...."

    def test_fd_positions_are_private(self, table):
        fd = table.open("/data/input", O_RDONLY)
        child = table.fork_cow()
        table.read(fd, 5)
        assert child.read(fd, 3) == b"012"

    def test_no_copy_until_write(self, table):
        fd = table.open("/data/input", O_RDWR)
        child = table.fork_cow()
        assert child.cow_bytes == 0
        child.write(fd, b"X")
        assert child.cow_bytes == 10

    def test_second_write_free(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"0123456789")
        child = table.fork_cow()
        child.write(fd, b"a")
        copied = child.cow_bytes
        child.write(fd, b"b")
        assert child.cow_bytes == copied

    def test_same_file_two_fds_stay_consistent_after_cow(self, table):
        fd1 = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd1, b"hello")
        fd2 = table.open("/out", O_RDWR)
        child = table.fork_cow()
        child.write(fd2, b"WORLD")
        # Both of the child's fds see the private copy.
        child.lseek(fd1, 0, 0)
        assert child.read(fd1, 5) == b"WORLD"
        assert table.contents("/out") == b"hello"

    def test_open_after_fork_sees_path_view(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"data")
        child = table.fork_cow()
        fd2 = child.open("/out", O_RDONLY)
        assert child.read(fd2, 4) == b"data"

    def test_free_releases_refs(self, table):
        fd = table.open("/out", O_RDWR | O_CREAT)
        table.write(fd, b"x")
        child = table.fork_cow()
        fdata = child._inodes[child._fds[fd].ino]
        before = fdata.refcount
        child.free()
        assert fdata.refcount < before

    def test_siblings_never_see_unflushed_blocks(self, table):
        """The page-cache isolation property: pending (unflushed) writes
        are as private as flushed ones."""
        fd = table.open("/data/input", O_RDWR)
        a = table.fork_cow()
        b = table.fork_cow()
        a.write(fd, b"AAAA")  # pending in a's overlay only
        assert b.contents("/data/input") == b"0123456789"
        assert table.contents("/data/input") == b"0123456789"
        a.fsync(fd)  # flushing stays private too (COW of the inode)
        assert b.contents("/data/input") == b"0123456789"
        assert a.contents("/data/input") == b"AAAA456789"

    def test_fork_copies_no_backing_bytes(self, monkeypatch):
        """A fork costs O(open files + dirty blocks), not O(backing
        bytes): a large backing file is shared, never re-materialised."""
        big = bytes(range(256)) * 4096  # 1 MiB
        table = FileTable(HostFS({"/big": big}), PermissivePolicy())
        fd = table.open("/big", O_RDONLY)
        cow_bytes = table.stats.cow_bytes
        constructed = []
        init = FileData.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FileData, "__init__", counting_init)
        child = table.fork_cow()
        assert constructed == []
        assert table.stats.cow_bytes == cow_bytes
        assert child.cow_bytes == 0
        assert child.read(fd, 4) == big[:4]
        assert child.contents("/big") == big


def small_table(files=None, block_size=4):
    return FileTable(HostFS(files or {}, block_size=block_size),
                     PermissivePolicy())


class TestBarriers:
    """fsync/sync semantics over the volatile page cache."""

    def test_write_is_volatile_until_fsync(self):
        t = small_table({"/f": b"aaaa"})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"bbbb")
        assert t.contents("/f") == b"bbbb"          # merged view
        assert t.durable_contents("/f") == b"aaaa"  # crash would lose it
        t.fsync(fd)
        assert t.durable_contents("/f") == b"bbbb"

    def test_fsync_flushes_creation_record(self):
        t = small_table()
        fd = t.open("/new", O_RDWR | O_CREAT)
        t.write(fd, b"x")
        assert t.durable_contents("/new") is None
        t.fsync(fd)
        assert t.durable_contents("/new") == b"x"

    def test_fsync_is_per_inode(self):
        t = small_table({"/a": b"1111", "/b": b"2222"})
        fa = t.open("/a", O_RDWR)
        fb = t.open("/b", O_RDWR)
        t.write(fa, b"AAAA")
        t.write(fb, b"BBBB")
        t.fsync(fa)
        assert t.durable_contents("/a") == b"AAAA"
        assert t.durable_contents("/b") == b"2222"

    def test_rename_needs_sync_not_fsync(self):
        t = small_table({"/cfg": b"old!"})
        fd = t.open("/cfg.tmp", O_RDWR | O_CREAT)
        t.write(fd, b"new!")
        t.fsync(fd)
        assert t.rename("/cfg.tmp", "/cfg") == 0
        assert t.contents("/cfg") == b"new!"           # volatile view
        assert t.durable_contents("/cfg") == b"old!"   # rename at risk
        t.sync()
        assert t.durable_contents("/cfg") == b"new!"
        assert t.durable_contents("/cfg.tmp") is None

    def test_rename_missing_src(self):
        t = small_table()
        assert t.rename("/nope", "/x") == -ENOENT

    def test_fsync_bad_fd(self):
        t = small_table()
        assert t.fsync(42) == -EBADF

    def test_fsync_return_counts_flushed_records(self):
        t = small_table({"/f": b""})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"12345678")  # block_size=4 -> 2 records
        assert t.fsync(fd) == 2
        assert t.fsync(fd) == 0   # nothing pending


class TestPageCacheEdges:
    """Regressions: lseek/read against the merged flushed+pending view."""

    def test_seek_end_counts_unflushed_appended_blocks(self):
        t = small_table({"/f": b"1234"})
        fd = t.open("/f", O_RDWR)
        t.lseek(fd, 0, 2)
        t.write(fd, b"5678ab")    # appends unflushed blocks 1..2
        assert t.lseek(fd, 0, 2) == 10
        assert t.lseek(fd, -2, 2) == 8

    def test_read_spans_flushed_unflushed_boundary(self):
        t = small_table({"/f": b"1234"})
        fd = t.open("/f", O_RDWR)
        t.fsync(fd)               # block 0 durable
        t.lseek(fd, 0, 2)
        t.write(fd, b"5678")      # block 1 pending
        t.lseek(fd, 2, 0)
        assert t.read(fd, 4) == b"3456"  # stitched across the boundary

    def test_read_of_partially_overwritten_block(self):
        t = small_table({"/f": b"abcdefgh"})
        fd = t.open("/f", O_RDWR)
        t.lseek(fd, 3, 0)
        t.write(fd, b"XY")        # spans blocks 0 and 1, both pending
        t.lseek(fd, 0, 0)
        assert t.read(fd, 8) == b"abcXYfgh"


class TestCrashEnumeration:
    """The sys_crash_* surface against hand-checkable logs."""

    def test_no_pending_means_zero_dims(self):
        t = small_table({"/f": b"1234"})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"XXXX")
        t.fsync(fd)
        assert t.crash_select(len(t.oplog)) == 0
        assert t.crash_commit() == 0
        assert t.contents("/f") == b"XXXX"

    def test_single_pending_block_two_options(self):
        t = small_table({"/f": b"1234"})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"XXXX")
        assert t.crash_select(1) == 1
        assert t.crash_opts(0) == 2
        lost = t.fork_cow()
        assert lost.crash_set(0, 0) == 0
        lost.crash_commit()
        assert lost.contents("/f") == b"1234"
        kept = t.fork_cow()
        kept.crash_set(0, 1)
        kept.crash_commit()
        assert kept.contents("/f") == b"XXXX"

    def test_block_prefix_closure(self):
        """Two writes to one block: the second can't land without the
        first (options = prefix lengths 0, 1, 2)."""
        t = small_table({"/f": b"...."})
        fd = t.open("/f", O_RDWR)
        t.lseek(fd, 0, 0)
        t.write(fd, b"A")
        t.lseek(fd, 1, 0)
        t.write(fd, b"B")
        assert t.crash_select(2) == 1
        assert t.crash_opts(0) == 3
        mid = t.fork_cow()
        mid.crash_set(0, 1)
        mid.crash_commit()
        assert mid.contents("/f") == b"A..."

    def test_torn_multiblock_write(self):
        t = small_table({"/f": b"aaaabbbb"})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"AAAABBBB")   # 2 blocks -> 2 independent dims
        assert t.crash_select(2) == 2
        torn = t.fork_cow()
        torn.crash_set(0, 0)
        torn.crash_set(1, 1)
        torn.crash_commit()
        assert torn.contents("/f") == b"aaaaBBBB"

    def test_lost_create_drops_the_file(self):
        t = small_table()
        fd = t.open("/new", O_RDWR | O_CREAT)
        t.write(fd, b"data")
        n = t.crash_select(2)
        assert n == 2              # create dim + one block dim
        gone = t.fork_cow()
        gone.crash_set(0, 0)       # create lost
        gone.crash_set(1, 1)       # data "applied" to an unlinked inode
        gone.crash_commit()
        assert gone.contents("/new") is None

    def test_commit_drops_fds_and_rebases(self):
        t = small_table({"/f": b"1234"})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"XXXX")
        t.crash_select(0)
        t.crash_commit()
        assert t.open_fds() == []
        assert t.oplog == ()
        assert t.read(fd, 4) == -EBADF
        fd2 = t.open("/f", O_RDONLY)
        assert t.read(fd2, 4) == b"1234"

    def test_invalid_arguments(self):
        t = small_table({"/f": b"1234"})
        assert t.crash_select(5) == -22
        assert t.crash_opts(0) == -22     # no select yet
        assert t.crash_set(0, 0) == -22
        assert t.crash_commit() == -22
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"X")
        assert t.crash_select(1) == 1
        assert t.crash_opts(3) == -22
        assert t.crash_set(0, 2) == -22   # only options 0 and 1

    def test_forked_choices_are_private(self):
        t = small_table({"/f": b"1234"})
        fd = t.open("/f", O_RDWR)
        t.write(fd, b"XXXX")
        t.crash_select(1)
        a = t.fork_cow()
        b = t.fork_cow()
        a.crash_set(0, 1)
        b.crash_set(0, 0)
        a.crash_commit()
        b.crash_commit()
        assert a.contents("/f") == b"XXXX"
        assert b.contents("/f") == b"1234"


class TestPolicy:
    def test_sound_policy_refuses_devices(self, hostfs):
        table = FileTable(hostfs, SoundMinimalPolicy())
        assert table.open("/dev/null", O_RDONLY) == -EACCES
        assert table.open("/proc/self/maps", O_RDONLY) == -EACCES

    def test_sound_policy_refuses_sockets(self, hostfs):
        table = FileTable(hostfs, SoundMinimalPolicy())
        assert table.open("socket:127.0.0.1:80", O_RDWR) == -EACCES

    def test_sound_policy_allows_regular(self, hostfs):
        table = FileTable(hostfs, SoundMinimalPolicy())
        assert table.open("/etc/config", O_RDONLY) >= 3

    def test_denials_audited(self, hostfs):
        table = FileTable(hostfs, SoundMinimalPolicy())
        table.open("/dev/null", O_RDONLY)
        assert len(table.audit.denials) == 1
        assert table.audit.denials[0].syscall == "open"

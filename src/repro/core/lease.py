"""Lease-based task ownership with monotonic fencing tokens.

On a single host, "the worker died" is a fact: the coordinator holds the
process handle and the pipe EOF is authoritative.  Over a network it is
only ever a *suspicion* — a partitioned worker looks exactly like a dead
one, keeps computing, and may deliver its result after the coordinator
has re-dispatched the task elsewhere.  Without extra machinery that
late result double-counts solutions and breaks the engine's exact
work-conservation invariant.

The classic fix (Chubby/GFS lineage) is leases plus fencing:

* every dispatched task carries a **fencing token** drawn from one
  strictly monotonic counter; the :class:`LeaseTable` remembers which
  token is the *live* one per task key;
* a lease that sees no progress for its duration **expires**: the task
  is requeued and its next grant gets a higher token;
* a result is accepted only if its token matches the live lease
  (:meth:`settle` → ``"ok"``).  Anything else — expired lease, earlier
  grant, duplicated delivery, already-settled key — is **stale** and the
  engine discards it wholesale: no registry merge, no solutions, no
  spills, no journal ``complete``.  The re-execution elsewhere is the
  only accounting of that subtree, so the solution multiset and step
  counts match the sequential run exactly even when a presumed-dead
  worker resurfaces.

The table is pure bookkeeping over an injected clock (deterministic
tests); it never talks to workers or timers itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.search.shard import PrefixTask


@dataclass
class Lease:
    """One live grant: *task* owned by *wid* until *expires_at*."""

    key: tuple
    fence: int
    wid: int
    task: PrefixTask
    granted_at: float
    expires_at: Optional[float]  # None = no expiry (leases disabled)


class LeaseTable:
    """Ownership registry: one live lease per task key, fenced.

    Parameters
    ----------
    duration:
        Lease lifetime in seconds; ``None`` disables expiry (fencing
        still applies — late results from failed workers are still
        refused, they just are not *timed* out).
    start_fence:
        First token to hand out; a resumed coordinator seeds this past
        the journal's highest recorded fence so tokens stay monotonic
        across coordinator lifetimes.
    clock:
        Monotonic time source (injected for deterministic tests).
    """

    def __init__(self, duration: Optional[float] = None,
                 start_fence: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if duration is not None and duration <= 0:
            raise ValueError("lease duration must be > 0")
        if start_fence < 1:
            raise ValueError("start_fence must be >= 1")
        self.duration = duration
        self._clock = clock
        self._next_fence = start_fence
        self._live: dict[tuple, Lease] = {}

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    @property
    def next_fence(self) -> int:
        return self._next_fence

    def holder(self, key: tuple) -> Optional[int]:
        lease = self._live.get(tuple(key))
        return lease.wid if lease is not None else None

    def owned_by(self, wid: int) -> list[Lease]:
        """*wid*'s live leases, in grant order."""
        return [l for l in self._live.values() if l.wid == wid]

    # -- transitions ---------------------------------------------------

    def grant(self, task: PrefixTask, wid: int) -> Lease:
        """Lease *task* to *wid* under a fresh fencing token.

        Returns the lease; ``lease.task`` is the task with its ``fence``
        field stamped — that copy is what travels to the worker and what
        the journal records.  Granting a key that is already live
        supersedes the old lease (its token is fenced off).
        """
        fence = self._next_fence
        self._next_fence += 1
        now = self._clock()
        lease = Lease(
            key=task.key(),
            fence=fence,
            wid=wid,
            task=task._replace(fence=fence),
            granted_at=now,
            expires_at=(None if self.duration is None
                        else now + self.duration),
        )
        # Re-insert, so the table iterates in grant order.
        self._live.pop(lease.key, None)
        self._live[lease.key] = lease
        return lease

    def settle(self, key: tuple, fence: int) -> str:
        """Account a result for (*key*, *fence*): ``"ok"`` or ``"stale"``.

        ``"ok"`` consumes the lease; any later settle of the same key is
        stale by construction (no live lease), so a duplicated result
        delivery can never double-count.
        """
        key = tuple(key)
        lease = self._live.get(key)
        if lease is None or lease.fence != fence:
            return "stale"
        del self._live[key]
        return "ok"

    def revoke(self, key: tuple) -> Optional[Lease]:
        """Drop the live lease for *key* (its token becomes stale)."""
        return self._live.pop(tuple(key), None)

    def revoke_worker(self, wid: int) -> list[Lease]:
        """Drop every live lease owned by *wid* (worker declared down);
        returns them in grant order."""
        mine = [l for l in self._live.values() if l.wid == wid]
        for lease in mine:
            del self._live[lease.key]
        return mine

    def extend_worker(self, wid: int,
                      now: Optional[float] = None) -> None:
        """Push out expiry for *wid*'s leases (observed progress)."""
        if self.duration is None:
            return
        if now is None:
            now = self._clock()
        deadline = now + self.duration
        for lease in self._live.values():
            if lease.wid == wid:
                lease.expires_at = deadline

    def expired(self, now: Optional[float] = None) -> list[Lease]:
        """Pop and return every lease past its deadline."""
        if self.duration is None:
            return []
        if now is None:
            now = self._clock()
        out = [
            l for l in self._live.values()
            if l.expires_at is not None and now >= l.expires_at
        ]
        for lease in out:
            del self._live[lease.key]
        return out

    def drain(self) -> Iterable[Lease]:
        """Pop every live lease (coordinator shutdown/degrade path)."""
        leases = list(self._live.values())
        self._live.clear()
        return leases

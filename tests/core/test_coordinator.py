"""The cluster coordinator as a state machine, driven without processes.

A fake transport delivers scripted :class:`TransportEvent`s and records
what each endpoint is sent; a fake clock drives the lease table, the
supervisor and the stall detector.  Each case here pins a decision the
process-based suites reach only through timing: exact lease expiry, the
crash suspect, timeout-versus-crash blame, the steal-crossing excuse,
and the retry budget.
"""

from collections import deque

from repro.core.cluster import ProcessParallelEngine, _Coordinator
from repro.core.lease import LeaseTable
from repro.core.supervisor import WorkerSupervisor
from repro.core.transport import EndpointDown, TransportEvent
from repro.obs.registry import MetricsRegistry
from repro.search.shard import PrefixTask


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class FakeEndpoint:
    """Records every message and lifecycle call; alive until killed."""

    external = False

    def __init__(self, wid):
        self.wid = wid
        self.sent = []
        self.calls = []
        self.up = True

    def send(self, msg):
        if not self.up:
            raise EndpointDown(f"worker {self.wid} endpoint closed")
        self.sent.append(msg)

    def alive(self):
        return self.up

    def kill(self):
        self.up = False
        self.calls.append("kill")

    def __getattr__(self, name):
        if name in ("poison", "terminate", "join", "kill_hard", "close"):
            return lambda *a, **k: self.calls.append(name)
        raise AttributeError(name)


class FakeTransport:
    """Spawns fake endpoints; :meth:`poll` returns the scripted events."""

    def __init__(self):
        self.endpoints = []
        self.script = deque()

    def spawn(self):
        ep = FakeEndpoint(len(self.endpoints))
        self.endpoints.append(ep)
        return ep

    def poll(self, timeout):
        events = list(self.script)
        self.script.clear()
        return events

    def close(self):
        pass


class FakeJournal:
    def __init__(self):
        self.records = []

    def append(self, rtype, **fields):
        self.records.append((rtype, fields))

    def types(self):
        return [rtype for rtype, _ in self.records]


def task(*prefix, attempt=0):
    return PrefixTask(prefix=prefix, fanouts=(4,) * len(prefix),
                      attempt=attempt)


def make(clock, tasks, *, workers=1, task_timeout=None, lease=None,
         max_task_retries=2):
    engine = ProcessParallelEngine(
        workers=workers, task_timeout=task_timeout, lease_timeout=lease,
        max_task_retries=max_task_retries,
    )
    coord = _Coordinator(
        engine, FakeTransport(), LeaseTable(duration=lease, clock=clock),
        WorkerSupervisor(workers, engine.supervisor_policy, clock=clock),
        FakeJournal(), clock,
    )
    coord.frontier.extend(tasks)
    coord.start()
    return coord


def deliver(coord, ep, *payload):
    coord.on_event(TransportEvent("msg", ep, payload=payload), coord.clock())


def steal(coord, ep, want=4, seen_fence=0):
    deliver(coord, ep, "steal", ep.wid, want, seen_fence)
    coord.dispatch()


def result(coord, ep, granted, solutions=(), steps=0):
    worker_registry = MetricsRegistry("w")
    worker_registry.counter("parallel.guest_steps").inc(steps)
    deliver(coord, ep, "task", ep.wid, granted.key(), granted.fence,
            list(solutions), [], worker_registry.state_dict(), None, [])


def count(coord, name):
    return coord.reg.counter("parallel." + name).value


def last_batch(ep):
    kind, batch, _budget, _events = ep.sent[-1]
    assert kind == "work"
    return batch


class TestLeaseExpiry:
    def test_expires_at_duration_and_the_late_result_settles_stale(self):
        clock = FakeClock()
        coord = make(clock, [task(0)], lease=5.0)
        ep = coord.transport.endpoints[0]
        steal(coord, ep, want=1)
        (granted,) = last_batch(ep)
        assert granted.fence == 1

        clock.now = 105.0 - 1e-9
        coord.expire_leases(clock())
        assert count(coord, "leases_expired") == 0
        assert coord.busy(coord.by_wid[ep.wid])

        clock.now = 105.0
        coord.expire_leases(clock())
        assert count(coord, "leases_expired") == 1
        assert ("expire", {"task": granted.to_record(), "fence": 1,
                           "worker": ep.wid, "reason": "lease expired"}
                ) in coord.journal.records
        assert not coord.busy(coord.by_wid[ep.wid])

        # The re-grant carries a fresh fence; the old holder's late
        # result is refused wholesale.
        steal(coord, ep, want=1, seen_fence=granted.fence)
        (regranted,) = last_batch(ep)
        assert regranted.key() == granted.key()
        assert (regranted.attempt, regranted.fence) == (1, 2)
        result(coord, ep, granted, solutions=[((0, 1), 0, "x")], steps=7)
        assert count(coord, "fenced_stale") == 1
        assert coord.journal.types()[-1] == "stale"
        assert coord.solutions == []
        assert count(coord, "guest_steps") == 0
        assert coord.leases.holder(regranted.key()) == ep.wid

        result(coord, ep, regranted, solutions=[((0, 1), 0, "x")], steps=7)
        assert len(coord.solutions) == 1
        assert count(coord, "guest_steps") == 7
        assert coord.journal.types()[-1] == "complete"


class TestWorkerCrash:
    def test_suspect_is_retried_and_batch_mates_keep_their_attempt(self):
        clock = FakeClock()
        coord = make(clock, [task(0), task(1), task(2)])
        ep = coord.transport.endpoints[0]
        steal(coord, ep)
        done, suspect, mate = last_batch(ep)
        result(coord, ep, done)
        coord.on_event(
            TransportEvent("down", ep, detail="result pipe closed"), clock(),
        )
        assert count(coord, "worker_crashes") == 1
        assert count(coord, "tasks_retried") == 2
        assert ep.calls == ["kill"]
        assert ep.wid not in coord.by_wid
        assert len(coord.leases) == 0
        assert len(coord.frontier) == 2

        clock.now += 10.0  # past the respawn backoff
        coord.respawn(clock())
        fresh = coord.transport.endpoints[1]
        steal(coord, fresh)
        regranted = {t.key(): t for t in last_batch(fresh)}
        assert {k: t.attempt for k, t in regranted.items()} == {
            suspect.key(): suspect.attempt + 1, mate.key(): mate.attempt,
        }
        old_fences = {done.fence, suspect.fence, mate.fence}
        assert all(t.fence > max(old_fences) for t in regranted.values())


class TestStall:
    def test_no_progress_for_task_timeout_is_a_timeout_not_a_crash(self):
        clock = FakeClock()
        coord = make(clock, [task(0)], task_timeout=10.0, lease=15.0)
        ep = coord.transport.endpoints[0]
        steal(coord, ep)
        (granted,) = last_batch(ep)

        clock.now = 110.0
        coord.check_workers(clock())
        assert count(coord, "task_timeouts") == 0

        clock.now = 110.5
        coord.check_workers(clock())
        assert count(coord, "task_timeouts") == 1
        assert count(coord, "worker_crashes") == 0
        assert ep.calls == ["kill"]
        (requeued,) = coord.frontier.take_batch(4)
        assert requeued.key() == granted.key() and requeued.attempt == 1


class TestStealCrossing:
    def test_one_crossed_steal_is_excused_and_a_second_reclaims(self):
        clock = FakeClock()
        coord = make(clock, [task(0), task(1)])
        ep = coord.transport.endpoints[0]
        steal(coord, ep)
        batch = last_batch(ep)
        assert count(coord, "steals") == 1

        # Stamped with a fence older than the batch: it crossed it.
        steal(coord, ep, seen_fence=0)
        assert count(coord, "leases_expired") == 0
        assert len(coord.leases) == 2
        assert count(coord, "steals") == 1

        # The same again is no crossing: the batch is reclaimed.
        deliver(coord, ep, "steal", ep.wid, 4, 0)
        assert count(coord, "leases_expired") == 2
        assert [f["reason"] for rtype, f in coord.journal.records
                if rtype == "expire"] == ["steal while leases held"] * 2
        assert count(coord, "steals") == 2
        requeued = {t.key(): t.attempt for t in coord.frontier.take_batch(4)}
        assert requeued == {t.key(): 1 for t in batch}

    def test_a_steal_that_saw_the_batch_reclaims_at_once(self):
        clock = FakeClock()
        coord = make(clock, [task(0), task(1)])
        ep = coord.transport.endpoints[0]
        steal(coord, ep)
        latest = max(t.fence for t in last_batch(ep))
        deliver(coord, ep, "steal", ep.wid, 4, latest)
        assert count(coord, "leases_expired") == 2


class TestRetryBudget:
    def test_task_at_max_retries_is_dropped_and_the_run_says_so(self):
        clock = FakeClock()
        coord = make(clock, [task(0, attempt=1)], max_task_retries=1)
        ep = coord.transport.endpoints[0]
        steal(coord, ep)
        (granted,) = last_batch(ep)
        coord.on_event(TransportEvent("down", ep, detail="gone"), clock())
        assert count(coord, "tasks_dropped") == 1
        assert count(coord, "tasks_retried") == 0
        assert ("drop", {"task": granted.to_record()}) in coord.journal.records
        assert not coord.frontier

        coord.run(program=None, config=None)
        assert coord.stop_reason == "task_retries_exhausted"
        assert coord.journal.records[-1] == (
            "run_end", {"stop_reason": "task_retries_exhausted",
                        "exhausted": False, "solutions": 0},
        )

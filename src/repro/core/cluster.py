"""Process-parallel exploration with replay-based rehydration.

§3 contrasts sequential DFS with "a parallel depth-first-search strategy
[that] might simply fork without waiting", and Figure 2 draws one
extension-evaluation box per CPU core.  :class:`ProcessParallelEngine`
realises that architecture with real OS processes:

* a **coordinator** owns a frontier of :class:`~repro.search.shard.PrefixTask`
  subtree roots — decision prefixes, not snapshots, because page tables
  must never cross a process boundary;
* N **workers**, each owning a full engine stack (libOS, frame pool,
  snapshot manager, vCPU), rehydrate an assigned task by deterministically
  replaying its guess prefix from the program start (the record/replay
  lever of user-space replay systems), then explore the whole subtree
  under it *locally* with lightweight snapshots — amortizing the replay
  cost over every extension inside the subtree;
* when a worker exceeds its depth or step budget it converts its local
  snapshot frontier back into prefix tasks and **spills** them to the
  coordinator, which shards them to idle workers.

Scheduling is **work-stealing**: idle workers announce their capacity
(``steal``) and pull batches off the coordinator's shared frontier;
spilled subtrees re-enter that steal pool.  The wire underneath is a
pluggable :mod:`~repro.core.transport`: duplex pipes for local pools
(bit-compatible with the original protocol) or framed TCP for elastic
pools whose workers join and leave mid-run.  Because a TCP "death" is
only ever a suspicion (a partitioned worker keeps computing), every
dispatch carries a lease with a monotonic fencing token
(:mod:`~repro.core.lease`): late results under a stale fence are
counted (``parallel.fenced_stale``) and discarded wholesale, so the
solution multiset and the exact work-conservation invariant hold even
when a presumed-dead worker resurfaces.

Robustness: a per-task wall-clock timeout, worker-crash detection with
bounded retry of the lost tasks, lease expiry re-dispatch, and graceful
shutdown.  Observability: per-worker registry snapshots are merged into
the coordinator's registry
(:meth:`~repro.obs.registry.MetricsRegistry.merge_state`), and the
coordinator emits ``parallel.*`` trace events.

Within one worker the semantics are exactly :class:`MachineEngine`'s;
across workers the solution *set* is identical while discovery order is
nondeterministic — the differential suite pins this down.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.errors import ReplayDivergenceError
from repro.core.lease import Lease, LeaseTable
from repro.core.transport import (
    EndpointDown,
    PipeTransport,
    TcpTransport,
    TcpWorkerConnection,
)
from repro.core.recorder import NondetLog, Recorder
from repro.core.journal import (
    JOURNAL_VERSION,
    FSYNC_POLICIES,
    JournalWriter,
    check_resume,
    program_digest,
    recover,
)
from repro.core.result import SearchResult, SearchStats, Solution
from repro.core.stepper import Stepper
from repro.core.supervisor import (
    SlotState,
    SupervisorPolicy,
    WorkerSlot,
    WorkerSupervisor,
)
from repro.cpu.assembler import Program, assemble
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.mem.frames import FramePool
from repro.obs import events as _events
from repro.obs.live import (
    FlightRecorder,
    HeartbeatEmitter,
    RingSink,
    StatusLogger,
    StatusServer,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.status import HeartbeatRecord, RunStatus
from repro.obs.trace import TRACER as _TRACER, MemorySink
from repro.search import get_strategy
from repro.search.shard import PrefixTask, TaskFrontier, spill_extension
from repro.snapshot.snapshot import SnapshotManager
from repro.snapshot.tree import SnapshotTree
from repro.vmm.vcpu import VCpu


#: Root span ids for cluster runs: every run gets a fresh id, every task
#: of the run carries it, so multiple runs recorded into one trace file
#: stay separable.
_run_spans = itertools.count(1)


class WorkerError(RuntimeError):
    """A worker process reported an unrecoverable guest/engine error."""

    def __init__(self, worker_id: int, detail: str):
        self.worker_id = worker_id
        self.detail = detail
        super().__init__(f"worker {worker_id}: {detail}")


@dataclass(frozen=True)
class ClusterConfig:
    """Picklable knobs shipped to every worker process."""

    strategy: str = "dfs"
    max_steps_per_extension: int = 5_000_000
    #: Spill choice points deeper than this many guesses below the task
    #: root (None = no depth limit; rely on the step budget).
    subtree_depth: Optional[int] = None
    #: Guest instructions of *new* exploration per task before the local
    #: frontier is spilled back (replay of the prefix is not charged).
    task_step_budget: Optional[int] = 25_000
    #: Test hook, called as ``fault_hook(task)`` in the worker before
    #: each task — fault-injection tests and the chaos harness crash or
    #: stall here.
    fault_hook: Optional[Callable[[PrefixTask], None]] = None
    #: Chaos seam in the pipe protocol, called as ``pipe_hook(conn,
    #: task)`` in the worker just before a task result is sent — the
    #: chaos harness writes garbage bytes into the result pipe here to
    #: exercise the coordinator's protocol-corruption handling.
    pipe_hook: Optional[Callable] = None
    #: Workers buffer their trace events per task and ship the segment
    #: back with the result, so the coordinator can merge one causally
    #: ordered trace.  Off by default; the engine switches it on for a
    #: run whenever the coordinator's tracer has a sink attached.
    collect_trace: bool = False
    #: ``(pc, lint_id)`` sites the static analyzer flagged as sources of
    #: nondeterminism; ``None`` when the engine ran with ``verify="off"``
    #: (no analysis), ``()`` when the program was certified.  Workers
    #: cite the matching verdict when a replayed prefix diverges at
    #: runtime.
    nondet_sites: Optional[tuple[tuple[int, str], ...]] = None
    #: Record/replay mode (``"off"``, ``"record"``, ``"strict"``).  When
    #: active, every worker owns a :class:`~repro.core.recorder.Recorder`
    #: over a worker-lifetime log: the coordinator ships the recorded
    #: events relevant to each task batch, workers replay them during
    #: rehydration and subtree exploration, and freshly recorded events
    #: ride back with the task result.
    replay_mode: str = "off"
    #: Scripted stdin bytes for guests that read fd 0 (each worker gets
    #: its own :class:`~repro.libos.console.InputSource` over them).
    input_script: Optional[bytes] = None
    #: Backing files for guests that ``open`` host paths, shipped as a
    #: picklable snapshot; each worker rebuilds its own
    #: :class:`~repro.libos.files.HostFS` over them.  The store is
    #: immutable, so every worker sees the same initial durable state
    #: and crash tasks shard like any other prefix.
    hostfs_files: Optional[tuple[tuple[str, bytes], ...]] = None
    #: Persistence granularity of the workers' file layer (must match
    #: the coordinator's, or crash-dimension numbering would diverge).
    hostfs_block_size: int = 4096
    #: Seconds between worker heartbeat records shipped over the result
    #: pipe alongside task results (None disables heartbeats — the
    #: engine enables them whenever any live-telemetry surface is on).
    heartbeat_interval: Optional[float] = None
    #: Capacity of the per-worker flight-recorder ring of recent trace
    #: events, shipped inside heartbeats (0 disables the ring).
    flight_events: int = 0
    #: Tasks a worker asks for per ``steal`` announcement (the engine
    #: sets it to its batch_size; the coordinator may fulfil with less).
    steal_batch: int = 4


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _SubtreeWorker:
    """One worker's engine stack: rehydrate a task, explore its subtree.

    Created once per worker process; :meth:`explore` is called per task.
    The stepping is the machine engines' :class:`Stepper`; this class is
    the cluster's policy over it — prefix rehydration of the task root,
    the spill predicate, and turning the leftover local frontier back
    into replayable :class:`PrefixTask` roots.  All snapshot state is
    torn down at the end of every task, so frames never accumulate
    across tasks and the registry gauges return to zero between result
    messages (which is what makes delta-shipping the registry sound).
    """

    def __init__(self, program: Program, config: ClusterConfig,
                 replay_log: Optional[NondetLog] = None):
        self.program = program
        self.config = config
        input_source = None
        if config.input_script is not None:
            from repro.libos.console import InputSource

            input_source = InputSource(config.input_script)
        hostfs = None
        if config.hostfs_files is not None:
            hostfs = HostFS(dict(config.hostfs_files),
                            block_size=config.hostfs_block_size)
        self.libos = LibOS(hostfs=hostfs, input=input_source)
        if config.replay_mode != "off":
            self.recorder: Optional[Recorder] = Recorder(
                config.replay_mode, log=replay_log
            )
        else:
            self.recorder = None
        self.libos.dispatcher.nondet = self.recorder
        self.pool = FramePool()
        self.registry = MetricsRegistry("cluster-worker")
        self.manager = SnapshotManager(self.pool, registry=self.registry)
        self.stats = SearchStats(registry=self.registry)
        self.stepper = Stepper(
            self.libos, self.pool, VCpu(), config.strategy,
            manager=self.manager,
            max_steps_per_extension=config.max_steps_per_extension,
            recorder=self.recorder,
        )
        # Guest strategy selection is coordinator policy in the cluster
        # engine; acknowledge and ignore.
        self.stepper.allow_guest_strategy = False
        self.stepper.verdict = self._divergence_verdict
        self._steps_counter = self.registry.counter("parallel.guest_steps")
        self._replay_counter = self.registry.counter("parallel.replay_steps")
        self._task_timer = self.registry.timer("parallel.task_time")
        # FramePool keeps its stats on the pool object, not in a registry;
        # ship per-task deltas so the coordinator sees copy totals.
        self._frames_copied = self.registry.counter("mem.frames_copied")
        self._spills_counter = self.registry.counter("parallel.worker_spills")
        self._last_copied = self._last_explored = self._last_replayed = 0

    @property
    def _explored(self) -> int:
        """Guest instructions of fresh exploration over the worker's life."""
        stepper = self.stepper
        return stepper.vcpu.vmcs.guest_instructions - stepper.replayed

    def sync_frame_stats(self) -> None:
        """Mirror the pool's copy count and the stepper's instruction
        counts into the registry.

        Called at every task end and before every heartbeat, so mid-task
        uncommitted registry states carry the work done so far.
        """
        copied = self.pool.stats.copied
        if copied != self._last_copied:
            self._frames_copied.inc(copied - self._last_copied)
            self._last_copied = copied
        explored, replayed = self._explored, self.stepper.replayed
        self._steps_counter.inc(explored - self._last_explored)
        self._replay_counter.inc(replayed - self._last_replayed)
        self._last_explored, self._last_replayed = explored, replayed

    def _divergence_verdict(self, pc: int) -> Optional[str]:
        """The static analyzer's take on a replay divergence at *pc*."""
        sites = self.config.nondet_sites
        if sites is None:
            return None  # engine ran with verify="off": no analysis
        for site_pc, lint_id in sites:
            if site_pc == pc:
                return (
                    f"{lint_id} flagged this syscall site as "
                    "nondeterministic at analysis time"
                )
        if sites:
            listed = ", ".join(f"{lid}@{spc:#x}" for spc, lid in sites[:4])
            return f"program was not certified deterministic ({listed})"
        return (
            "program was certified deterministic — divergence indicates "
            "an engine or snapshot bug, not guest nondeterminism"
        )

    # -- public entry point --------------------------------------------

    def explore(self, task: PrefixTask, solutions_budget: Optional[int]):
        """Run one task to completion; returns (solutions, spilled).

        ``solutions`` is a list of ``(path, status, text)`` triples;
        ``spilled`` the prefix tasks for subtrees this worker did not
        enter (budget exceedances and solution-budget early stops).
        """
        with self._task_timer.time():
            cfg = self.config
            stepper = self.stepper
            stepper.begin(self.program, self.stats)
            stepper.strategy = get_strategy(cfg.strategy)
            stepper.tree = tree = SnapshotTree(self.manager)
            spilled: list[PrefixTask] = []
            explored_before = self._explored

            def budget_spent() -> Optional[str]:
                if (
                    solutions_budget is not None
                    and len(stepper.solutions) >= solutions_budget
                ):
                    return "max_solutions"
                if (
                    cfg.task_step_budget is not None
                    and self._explored - explored_before
                    >= cfg.task_step_budget
                ):
                    return "task_step_budget"
                return None

            def spill(path, fanouts, n, hints) -> bool:
                # Outside this task's budget: hand the whole choice point
                # back to the coordinator as replayable subtree roots.
                if not (
                    (cfg.subtree_depth is not None
                     and len(path) - task.depth >= cfg.subtree_depth)
                    or budget_spent() is not None
                ):
                    return False
                spilled.extend(spill_extension(
                    path, fanouts, n,
                    tuple(hints) if hints is not None else None,
                    span=task.span,
                ))
                return True

            def stop() -> Optional[str]:
                if stepper.heartbeat is not None:
                    stepper.heartbeat()
                return budget_spent()

            stepper.spill = spill
            stepper.run(stepper.boot(task.prefix, task.fanouts))
            stepper.explore(stop)

            # Convert whatever local frontier remains into replayable
            # tasks and unwind its pins so the snapshot tree (and its
            # frames) die.
            while True:
                ext = stepper.strategy.next()
                if ext is None:
                    break
                cand = ext.candidate
                spilled.append(
                    PrefixTask(
                        prefix=cand.path + (ext.number,),
                        fanouts=cand.fanouts + (cand.n,),
                        hint=ext.hint,
                        span=task.span,
                    )
                )
                tree.unpin(cand.snapshot)
            # Worker-local frontier peaks are per-task numbers; summing
            # them through the gauge merge would be meaningless, so the
            # engine's peak_frontier reports the coordinator task
            # frontier instead.
            self.sync_frame_stats()
            if spilled:
                self._spills_counter.inc(len(spilled))
            solutions = [
                (s.path, s.value[0], s.value[1]) for s in stepper.solutions
            ]
            return solutions, spilled


#: Seconds between an idle worker's re-announcements of its steal
#: capacity.  Over a pipe the first announcement always arrives; over a
#: chaos-injected network a ``steal`` (or the ``work`` answering it) can
#: be dropped, and the periodic re-announcement is what un-wedges the
#: run.  Each steal carries the highest fence the worker has received, so
#: the coordinator can tell a steal that crossed its latest batch in
#: flight (ignored once) from one by a worker that has seen every batch
#: and still reports idle (its results were lost) or that re-announced
#: without ever seeing the batch (the work frame was lost); only the
#: last two reclaim the leases and re-dispatch.
_STEAL_REANNOUNCE_S = 1.0


def _serve_task(worker: _SubtreeWorker, task: PrefixTask,
                solutions_budget: Optional[int], wid: int,
                emitter: Optional[HeartbeatEmitter] = None):
    """Explore one task between its ``task.begin`` and ``task.end`` events.

    Returns ``(solutions, spilled, state, fresh_events)``: the task's
    solutions and spills, the worker registry's state for this task (the
    registry is reset, so each result carries a delta), and the nondet
    events it freshly recorded.  Remote workers and the coordinator's
    in-process fallback (*wid* ``-1``) both serve tasks through here.
    """
    if _TRACER.enabled:
        _TRACER.emit(
            _events.TASK_BEGIN, worker=wid, task=list(task.prefix),
            depth=task.depth, span=task.span, attempt=task.attempt,
        )
    if emitter is not None:
        # Force a beat before the fault hook can kill us: the shipped
        # ring (with task.begin) is what the flight recorder dumps for
        # this death.
        worker.stepper.heartbeat = (
            lambda: emitter.beat(task=task.prefix, span=task.span)
        )
        emitter.beat(task=task.prefix, span=task.span, force=True)
    if worker.config.fault_hook is not None:
        worker.config.fault_hook(task)
    solutions, spilled = worker.explore(task, solutions_budget)
    if _TRACER.enabled:
        _TRACER.emit(
            _events.TASK_END, worker=wid, task=list(task.prefix),
            span=task.span, solutions=len(solutions), spilled=len(spilled),
            explore_steps=worker._steps_counter.value,
            replay_steps=worker._replay_counter.value,
            task_s=worker._task_timer.total_s,
        )
    state = worker.registry.state_dict()
    if emitter is not None:
        worker.stepper.heartbeat = None
        # Bank the lifetime counters this reset will zero.
        emitter.note_task_result(state)
    worker.registry.reset()
    fresh_events = (
        worker.recorder.drain_fresh() if worker.recorder is not None else []
    )
    return solutions, spilled, state, fresh_events


def _worker_main(worker_id: int, conn, program: Program,
                 config: ClusterConfig) -> None:
    """Worker process body: steal and serve batches until the pill."""
    # Under the ``fork`` start method this process inherited the
    # coordinator's tracer sinks (including any open trace file); writing
    # through them from here would interleave with the coordinator, so
    # forget them and collect into a private buffer instead.
    _TRACER.reset_sinks()
    _TRACER.set_context(worker=worker_id)
    collector = _TRACER.attach(MemorySink()) if config.collect_trace else None
    worker = _SubtreeWorker(program, config)
    emitter: Optional[HeartbeatEmitter] = None
    if config.heartbeat_interval is not None:
        # The flight ring is a tracer sink of its own: attaching it
        # enables event emission in this worker even when the
        # coordinator is not collecting a full trace — the ring bounds
        # the cost to the N most recent events.
        ring = (
            _TRACER.attach(RingSink(config.flight_events))
            if config.flight_events > 0 else None
        )
        emitter = HeartbeatEmitter(
            conn, worker_id, worker.registry, config.heartbeat_interval,
            ring=ring, sync=worker.sync_frame_stats,
        )
    #: Highest fence received in a batch: stamped on every steal.
    seen_fence = 0
    try:
        conn.send(("steal", worker_id, config.steal_batch, seen_fence))
        last_steal = time.monotonic()
        while True:
            # Wait for work; heartbeat through idle waits (so the
            # coordinator can tell "idle and healthy" from "gone") and
            # periodically re-announce the steal in case it was lost.
            while True:
                timeout = _STEAL_REANNOUNCE_S
                if emitter is not None:
                    timeout = min(timeout, emitter.poll_timeout())
                if conn.poll(timeout):
                    break
                if emitter is not None:
                    emitter.beat(phase="idle", force=True)
                now = time.monotonic()
                if now - last_steal >= _STEAL_REANNOUNCE_S:
                    conn.send(("steal", worker_id, config.steal_batch,
                               seen_fence))
                    last_steal = now
            msg = conn.recv()
            if msg is None:
                break
            if not (isinstance(msg, tuple) and len(msg) == 4
                    and msg[0] == "work"):
                continue  # duplicated/unknown control frame: ignore
            _, batch, solutions_budget, shipped_events = msg
            seen_fence = max([seen_fence] + [t.fence for t in batch])
            if worker.recorder is not None and shipped_events:
                worker.recorder.log.merge(shipped_events)
            for task in batch:
                try:
                    solutions, spilled, state, fresh_events = _serve_task(
                        worker, task, solutions_budget, worker_id, emitter,
                    )
                except Exception as exc:  # engine/guest error: report and die
                    conn.send(("error", worker_id,
                               f"{type(exc).__name__}: {exc}"))
                    return
                if solutions_budget is not None:
                    solutions_budget = max(
                        0, solutions_budget - len(solutions)
                    )
                segment = collector.drain() if collector is not None else None
                if config.pipe_hook is not None:
                    config.pipe_hook(conn, task)
                conn.send(
                    ("task", worker_id, task.key(), task.fence, solutions,
                     spilled, state, segment, fresh_events)
                )
            conn.send(("steal", worker_id, config.steal_batch, seen_fence))
            last_steal = time.monotonic()
    except (EOFError, OSError, KeyboardInterrupt, ConnectionError):
        pass  # coordinator went away or shut us down hard
    finally:
        conn.close()


def _tcp_worker_entry(address, wid: Optional[int] = None) -> None:
    """Process body of a TCP worker: dial the coordinator and serve.

    Used both for coordinator-spawned local workers (*wid* preassigned)
    and for external joiners (``run_guest --connect``; *wid* None, the
    coordinator assigns one in the welcome).  The program and config
    arrive over the wire in the handshake, so a joining host needs
    nothing but the address.
    """
    try:
        conn = TcpWorkerConnection(address, wid=wid)
    except (ConnectionError, OSError):
        return  # coordinator already gone; nothing to serve
    _worker_main(conn.wid, conn, conn.program, conn.config)


def tcp_worker(host: str, port: int) -> None:
    """Join a running TCP coordinator as a worker (blocks until done).

    The public entry behind ``run_guest --connect HOST:PORT``.
    """
    _tcp_worker_entry((host, port), wid=None)



# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


#: Capacity of each worker's flight-recorder ring (the most recent trace
#: events, shipped inside heartbeats when a flight directory is set).
_FLIGHT_EVENTS = 256

#: Engine-registry counters ``parallel.<name>`` that ``stats.extra``
#: reports under their own names.
_EXTRA_COUNTERS = (
    "tasks_dispatched", "tasks_completed", "tasks_spilled", "tasks_retried",
    "tasks_dropped", "worker_crashes", "task_timeouts", "respawns",
    "protocol_errors", "steals", "leases_expired", "fenced_stale",
    "worker_joins", "replay_steps", "trace_events_merged", "trace_dropped",
)


def _well_formed(msg) -> bool:
    """Whether *msg* is a worker message the coordinator can act on."""
    if not isinstance(msg, tuple) or len(msg) < 3:
        return False
    if msg[0] == "task":
        return len(msg) == 9
    if msg[0] == "hb":
        return len(msg) == 3 and isinstance(msg[2], HeartbeatRecord)
    if msg[0] == "steal":
        return (len(msg) == 4 and isinstance(msg[2], int)
                and isinstance(msg[3], int))
    return msg[0] == "error"


class _WorkerHandle:
    __slots__ = ("ep", "slot", "last_progress", "crossed_steal")

    def __init__(self, ep, slot: WorkerSlot, now: float):
        #: The transport endpoint this worker is reached through.
        self.ep = ep
        #: The supervisor slot this worker occupies.
        self.slot = slot
        #: Clock reading of the last observed progress (a dispatch, a
        #: result, or a heartbeat whose step counter grew).
        self.last_progress = now
        #: A steal that predates the latest batch was already excused
        #: as crossing it in flight (reset at every dispatch).
        self.crossed_steal = False

    @property
    def wid(self) -> int:
        return self.ep.wid


class _Coordinator:
    """The coordinator loop as a state machine over the lease table.

    Transport events come in through the ``on_*`` handlers; leases,
    journal records and ``parallel.*`` trace events go out.  The lease
    table is the only record of what a worker owes: a worker is busy
    while it holds a live lease, and when it dies its first lease in
    grant order is the task it was running (workers run a batch in
    order and report per task).  Every accepted task result settles
    through :meth:`settle` and every lost task is requeued through
    :meth:`retry`, whether it ran on a remote worker or in-process
    after the pool collapsed.  All time comes from the injected *clock*,
    which the lease table and the supervisor share, so the tests can
    drive expiry and stall detection without processes or sleeps.
    """

    def __init__(self, engine: ProcessParallelEngine, transport,
                 leases: LeaseTable, sup: WorkerSupervisor,
                 journal: Optional[JournalWriter],
                 clock: Callable[[], float] = time.monotonic, span: int = 0):
        self.engine = engine
        self.transport = transport
        self.leases = leases
        self.sup = sup
        self.journal = journal
        self.clock = clock
        self.reg = engine.registry
        #: The coordinator's merged nondet-event log (None: replay off).
        self.nlog = engine.replay_log
        self.frontier = TaskFrontier(order=engine.strategy_name)
        self.solutions: list[Solution] = []
        self.poisoned: list[tuple[PrefixTask, list]] = []
        #: Task keys already completed in the journaled run: a resumed
        #: coordinator drops re-spills of these so a re-explored parent
        #: (its own completion record lost to corruption) can never
        #: double-count a child's already-durable solutions.
        self.resume_completed: set[tuple[int, ...]] = set()
        #: Every task key settled this run (superset of the resumed
        #: completed set): the second line of defence against double
        #: counting, behind fence matching.
        self.completed: set[tuple[int, ...]] = set()
        #: The live pool: one handle per occupied supervisor slot.
        self.by_wid: dict[int, _WorkerHandle] = {}
        #: Unfulfilled steal announcements, wid -> tasks wanted, in
        #: announcement order.
        self.steals: dict[int, int] = {}
        #: Wire-level observations (chaos net faults) arrive from the
        #: transport's loop thread; the tracer is single-threaded, so
        #: they are buffered here and drained into the trace by the
        #: loop.  deque.append is atomic under the GIL.
        self.wire_events: deque = deque()
        self.degraded = False
        self.stop_reason: Optional[str] = None
        self.status = RunStatus(
            workers=engine.num_workers, span=span,
            strategy=engine.strategy_name, clock=clock,
        )
        ring = engine.config.flight_events
        self.flight = (
            FlightRecorder(engine.flight_dir, capacity=ring) if ring else None
        )
        timeout = engine.task_timeout
        self.poll_s = 0.02 if timeout is None else min(0.02, timeout / 4)
        self.status_every = min(0.25, engine.status_interval)
        self.last_refresh = 0.0

    # -- helpers -------------------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        self.reg.counter("parallel." + name).inc(n)

    def record(self, rtype: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(rtype, **fields)

    def remaining(self) -> Optional[int]:
        """Solutions still wanted (None: find them all)."""
        cap = self.engine.max_solutions
        return None if cap is None else max(cap - len(self.solutions), 0)

    def busy(self, handle: _WorkerHandle) -> bool:
        return bool(self.leases.owned_by(handle.wid))

    def health(self) -> list[dict]:
        by_slot = {h.slot.index: h for h in self.by_wid.values()}
        health = self.sup.health()
        for entry in health:
            handle = by_slot.get(entry["slot"])
            entry["worker"] = handle.wid if handle is not None else None
            entry["busy"] = handle is not None and self.busy(handle)
        return health

    def refresh(self, force: bool = False) -> None:
        """Update the live status (at most every ``status_every`` s)."""
        if not self.engine._telemetry:
            return
        now = self.clock()
        if not force and now - self.last_refresh < self.status_every:
            return
        self.last_refresh = now
        self.status.refresh(
            self.reg.state_dict(), pending=len(self.frontier),
            in_flight=len(self.leases), solutions=len(self.solutions),
            health=self.health(),
        )

    def batch_events(self, batch) -> list:
        """Recorded events every task in *batch* may replay through."""
        if self.nlog is None:
            return []
        picked: dict = {}
        for task in batch:
            for event in self.nlog.events_for_task(task.prefix):
                picked[event.key()] = event
        return list(picked.values())

    def push_tasks(self, tasks) -> None:
        for task in tasks:
            key = task.key()
            if key in self.completed:
                if key in self.resume_completed:
                    self._inc("resume_spills_filtered")
                continue
            if self.sup.is_poisoned(key):
                continue  # quarantined: never re-dispatched
            self.frontier.push(task)

    def on_wire_event(self, kind: str, **fields) -> None:
        self.wire_events.append((kind, fields))

    # -- pool membership -----------------------------------------------

    def add_worker(self, ep, slot: WorkerSlot) -> _WorkerHandle:
        handle = self.by_wid[ep.wid] = _WorkerHandle(ep, slot, self.clock())
        return handle

    def start(self) -> None:
        """Spawn the initial pool."""
        for slot in self.sup.slots:
            self.add_worker(self.transport.spawn(), slot)
        self.reg.gauge("parallel.workers").set(self.engine.num_workers)
        self.refresh(force=True)

    def respawn(self, now: float) -> None:
        for slot in self.sup.respawn_ready(now):
            handle = self.add_worker(self.transport.spawn(), slot)
            self.sup.mark_running(slot)
            self._inc("respawns")
            if _TRACER.enabled:
                _TRACER.emit(
                    _events.PARALLEL_RESPAWN, worker=handle.wid,
                    slot=slot.index, failures=slot.failures,
                )

    def on_join(self, ep, detail: str = "") -> None:
        """An external (or resurfaced) worker completed the handshake:
        give it a non-respawnable slot and let it steal."""
        self.add_worker(ep, self.sup.add_slot(respawnable=False))
        self._inc("worker_joins")
        self.reg.gauge("parallel.workers").set(len(self.by_wid))
        self.record("join", worker=ep.wid, detail=detail)
        if _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_JOIN, worker=ep.wid, detail=detail)

    # -- the loop ------------------------------------------------------

    def run(self, program: Program, config: ClusterConfig) -> None:
        """Drive the run to its end, in-process past a pool collapse;
        sets :attr:`stop_reason` and seals the journal.

        An exception (worker error, chaos kill) skips the seal, leaving
        the journal resumable.
        """
        while self.step():
            pass
        if self.degraded:
            self.finish_in_process(program, config)
        if self.remaining() == 0:
            self.stop_reason = "max_solutions"
        elif self.poisoned:
            self.stop_reason = "tasks_poisoned"
        elif self.reg.counter("parallel.tasks_dropped").value:
            self.stop_reason = "task_retries_exhausted"
        if self.engine.max_solutions is not None:
            del self.solutions[self.engine.max_solutions:]
        self.record(
            "run_end", stop_reason=self.stop_reason,
            exhausted=self.stop_reason is None,
            solutions=len(self.solutions),
        )

    def step(self) -> bool:
        """One turn of the loop; False once the run is over (the
        solution budget is met, nothing is left, or the pool collapsed
        and :attr:`degraded` is set)."""
        if self.remaining() == 0:
            return False
        self.refresh()
        self.respawn(self.clock())
        if self.sup.collapsed() and (self.frontier or self.leases):
            self.degraded = True
            return False
        self.dispatch()
        if not self.leases and not self.frontier:
            return False  # frontier exhausted, nothing in flight
        timeout = self.poll_s
        if not self.leases:
            # Everything runnable is mid-backoff (or tasks were just
            # requeued): wait to the nearest respawn deadline instead of
            # spinning.  The transport still gets polled — a TCP pool
            # can gain an external joiner while every local slot is down.
            due = self.sup.next_respawn_due()
            if due is not None:
                timeout = min(timeout, max(0.0, due - self.clock()))
        events = self.transport.poll(max(0.0, timeout))
        now = self.clock()
        while self.wire_events:
            kind, f = self.wire_events.popleft()
            if kind == "net_fault" and _TRACER.enabled:
                _TRACER.emit(
                    _events.CHAOS_NET_FAULT, action=f.get("kind"),
                    direction=f.get("direction"), worker=f.get("worker"),
                    seq=f.get("seq"),
                )
        for ev in events:
            self.on_event(ev, now)
        self.check_workers(now)
        self.expire_leases(now)
        return True

    def dispatch(self) -> None:
        """Fulfil steal announcements off the frontier.

        Workers *pull*: an idle worker announces capacity and the
        coordinator grants it a leased batch — nothing is pushed
        unsolicited, so a slow worker never queues work it cannot start
        while a fast one sits idle.
        """
        while self.steals and self.frontier:
            wid = next(iter(self.steals))
            want = self.steals.pop(wid)
            handle = self.by_wid.get(wid)
            if handle is None or self.busy(handle):
                continue  # died or was re-dispatched meanwhile
            if handle.slot.state is not SlotState.RUNNING:
                continue
            if not handle.ep.alive():
                self.fail_worker(handle, "crash", "worker died while idle")
                continue
            batch = self.frontier.take_batch(
                max(1, min(want, self.engine.batch_size))
            )
            granted = [self.leases.grant(t, handle.wid).task for t in batch]
            handle.last_progress = self.clock()
            handle.crossed_steal = False
            try:
                handle.ep.send(("work", granted, self.remaining(),
                                self.batch_events(granted)))
            except EndpointDown:
                self.fail_worker(handle, "crash", "dispatch channel closed")
                continue
            self._inc("dispatches")
            self._inc("tasks_dispatched", len(granted))
            for task in granted:
                self.record("dispatch", task=task.to_record(),
                            worker=handle.wid)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_DISPATCH, worker=handle.wid,
                             tasks=len(granted))

    # -- transport events ----------------------------------------------

    def on_event(self, ev, now: float) -> None:
        if ev.kind == "join":
            self.on_join(ev.endpoint, ev.detail)
            return
        handle = self.by_wid.get(ev.endpoint.wid)
        if handle is None or handle.ep is not ev.endpoint:
            return  # failed/replaced earlier this sweep
        if ev.kind == "down":
            self.on_down(handle, ev)
            return
        msg = ev.payload
        if not _well_formed(msg):
            self._inc("protocol_errors")
            self.fail_worker(handle, "crash",
                             f"malformed result message {msg!r}"[:200])
        elif msg[0] == "steal":
            self.on_steal(handle, msg[2], msg[3])
        elif msg[0] == "hb":
            self.on_heartbeat(handle, msg[2], now)
        elif msg[0] == "task":
            self.on_result(handle, msg, now)
        elif str(msg[2]).startswith("ReplayDivergenceError:"):
            # Surface a worker's replay divergence as itself: callers
            # catch the typed error the same way whichever engine
            # detected it.
            raise ReplayDivergenceError(f"worker {msg[1]}: {msg[2]}")
        else:
            raise WorkerError(msg[1], msg[2])

    def on_down(self, handle: _WorkerHandle, ev) -> None:
        if ev.protocol_error:
            self._inc("protocol_errors")
        self.fail_worker(handle, ev.fail_kind or "crash", ev.detail)

    def on_steal(self, handle: _WorkerHandle, want: int,
                 seen_fence: int) -> None:
        owed = self.leases.owned_by(handle.wid)
        if owed:
            if (seen_fence < max(lease.fence for lease in owed)
                    and not handle.crossed_steal):
                # Sent before the worker received its latest batch: the
                # two crossed in flight, and the worker announces again
                # once that batch is done.
                handle.crossed_steal = True
                return
            # The worker says it is idle while it still holds leases:
            # either it saw every batch and the results were lost, or it
            # re-announced without seeing the latest batch and the work
            # was lost (dropped frames, a reconnect).  Reclaim eagerly —
            # the requeue re-executes, and the revoked fences turn any
            # late duplicate delivery into a discarded stale.
            for lease in self.leases.revoke_worker(handle.wid):
                self.expire(lease, "steal while leases held")
        if handle.wid not in self.steals:
            self._inc("steals")
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_STEAL, worker=handle.wid,
                             want=want)
        self.steals[handle.wid] = want

    def on_heartbeat(self, handle: _WorkerHandle, record: HeartbeatRecord,
                     now: float) -> None:
        self.reg.counter("telemetry.heartbeats").inc()
        progressed = self.status.observe_heartbeat(record)
        if self.flight is not None and record.events:
            self.flight.extend(handle.wid, record.events)
        if progressed and self.busy(handle):
            # The worker's step counter grew: its task is alive, defer
            # the stall timeout.  (A stalled worker cannot beat, so real
            # stalls still trip it.)  Leases ride the same signal —
            # observed progress renews ownership.
            handle.last_progress = now
            self.leases.extend_worker(handle.wid, now)

    def on_result(self, handle: _WorkerHandle, msg: tuple,
                  now: float) -> None:
        (_kind, _wid, key, fence, solutions, spilled, state, segment,
         fresh_events) = msg
        key = tuple(key)
        # A result is progress on the whole batch: the holder is alive
        # and working through it in order, so the stall timer and the
        # batch-mates' leases both restart, and a slow batch keeps its
        # tail.
        handle.last_progress = now
        self.leases.extend_worker(handle.wid, now)
        lease = next(
            (l for l in self.leases.owned_by(handle.wid) if l.key == key),
            None,
        )
        if lease is None or self.leases.settle(key, fence) == "stale":
            # A fenced-off result: the lease expired (or the worker was
            # declared down) and the task was re-dispatched, or this is
            # a duplicated delivery.  Discard it *wholesale* — no
            # registry merge, no solutions, no spills, no journal
            # complete — so the accepted execution remains the only
            # accounting of this subtree.
            self._inc("fenced_stale")
            self.record("stale", task={"prefix": list(key)}, fence=fence,
                        worker=handle.wid)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_FENCED_STALE,
                             worker=handle.wid, task=list(key), fence=fence)
            return
        self.sup.record_success(handle.slot)
        self.settle(handle.wid, lease.task, solutions, spilled, state,
                    segment, fresh_events)

    def settle(self, wid: int, task: PrefixTask, solutions: list,
               spilled: list, state: dict, segment: Optional[list],
               fresh_events: list) -> None:
        """Account one accepted task result, remote or in-process.

        *segment* is the worker's buffered trace for the task (None: the
        worker did not collect).  Fresh nondet events are journaled
        *before* the ``complete`` record: if the completion is later
        lost, the re-explored subtree replays them and reproduces the
        durable solutions instead of re-rolling them.
        """
        self.completed.add(task.key())
        self._inc("tasks_completed")
        self._inc("tasks_spilled", len(spilled))
        self.reg.merge_state(state)
        self.status.on_task_complete(
            wid, task.fanouts, len(solutions), [t.fanouts for t in spilled],
        )
        self.push_tasks(spilled)
        if self.nlog is not None and fresh_events:
            self.nlog.merge(fresh_events)
            self.record("nondet",
                        events=[e.to_record() for e in fresh_events])
        self.record(
            "complete", task=task.to_record(), worker=wid,
            solutions=[[list(path), status, text]
                       for path, status, text in solutions],
            spilled=[t.to_record() for t in spilled],
        )
        for path, status, text in solutions:
            self.solutions.append(Solution(value=(status, text), path=path))
        if _TRACER.enabled:
            # Splice the worker's buffered segment in between its
            # dispatch and its result event, so the merged stream stays
            # causally ordered.
            if segment:
                self._inc("trace_events_merged",
                          _TRACER.ingest(segment, worker=wid))
            elif segment is None:
                # The worker never collected: its events for this task
                # are gone.  Count the loss.
                self._inc("trace_dropped")
            _TRACER.emit(_events.PARALLEL_RESULT, worker=wid,
                         solutions=len(solutions), spilled=len(spilled))

    # -- failure, expiry, requeue --------------------------------------

    def check_workers(self, now: float) -> None:
        """Fail busy workers that died or made no progress in time."""
        timeout = self.engine.task_timeout
        for handle in list(self.by_wid.values()):
            if not self.busy(handle):
                continue
            if not handle.ep.alive():
                self.fail_worker(handle, "crash", "worker process died")
            elif timeout is not None and now - handle.last_progress > timeout:
                self.fail_worker(handle, "timeout",
                                 f"no progress for {timeout:.1f}s")

    def expire_leases(self, now: float) -> None:
        """Lease expiry is the *backstop* behind the stall detector
        (leases outlive the task timeout by design): it fires when
        results were lost in flight or a partitioned worker still looks
        alive.  Whatever the old holder eventually delivers settles
        stale."""
        for lease in self.leases.expired(now):
            self.expire(lease, "lease expired")

    def expire(self, lease: Lease, reason: str) -> None:
        """Retire a lease already out of the table and retry its task."""
        self._inc("leases_expired")
        self.record("expire", task=lease.task.to_record(), fence=lease.fence,
                    worker=lease.wid, reason=reason)
        if _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_LEASE_EXPIRED,
                         task=list(lease.key), fence=lease.fence,
                         worker=lease.wid)
        self.retry(lease.task)

    def retry(self, task: PrefixTask) -> bool:
        """Requeue a lost *task* one attempt later, or drop it once its
        retries are spent; True when it was requeued."""
        key = task.key()
        if key in self.completed or self.sup.is_poisoned(key):
            return False
        if task.attempt >= self.engine.max_task_retries:
            self._inc("tasks_dropped")
            self.record("drop", task=task.to_record())
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_DROP, tasks=1)
            return False
        self._inc("tasks_retried")
        self.frontier.push(task.retried())
        return True

    def fail_worker(self, handle: _WorkerHandle, kind: str,
                    detail: str = "") -> None:
        """Account one worker death: blame, requeue, schedule respawn."""
        wid = handle.wid
        # Fence off everything the worker still owed: whatever it
        # delivers from here on settles as stale.  Its first owed lease
        # is the task that was executing, the suspect; its batch-mates
        # are requeued at their old attempt — collateral, not culprits.
        owed = [lease.task for lease in self.leases.revoke_worker(wid)]
        suspect = owed[0] if owed else None
        if self.flight is not None:
            self.flight.record_failure(
                wid, kind, detail,
                task=list(suspect.prefix) if suspect is not None else None,
            )
            self.reg.counter("telemetry.flight_dumps").inc()
        self.status.on_worker_failed(wid)
        if kind == "timeout":
            self._inc("task_timeouts")
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_TIMEOUT, worker=wid)
        else:
            self._inc("worker_crashes")
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_CRASH, worker=wid)
        # Sever trust in the endpoint.  For pipes this also terminates
        # the process; for TCP it only disconnects — a partitioned worker
        # cannot be signalled either, and its possible resurfacing (with
        # now-stale fences) is exactly the case the lease table exists
        # for.
        handle.ep.kill()
        decision = self.sup.record_failure(
            handle.slot, wid, kind,
            suspect.key() if suspect is not None else None, detail,
        )
        if self.by_wid.get(wid) is handle:
            del self.by_wid[wid]
        if suspect is None:
            return
        requeued = 0
        if decision.poison:
            self._inc("poisoned_tasks")
            self.poisoned.append((suspect, decision.evidence))
            self.record("poisoned", task=suspect.to_record(),
                        evidence=decision.evidence)
            if _TRACER.enabled:
                _TRACER.emit(_events.PARALLEL_POISONED,
                             task=list(suspect.prefix),
                             kills=len(decision.evidence))
        else:
            requeued += self.retry(suspect)
        # Requeue lost tasks ahead of everything else so retries bound
        # the damage a flaky worker can do to latency.
        self.frontier.extend(owed[1:])
        self._inc("tasks_retried", len(owed) - 1)
        requeued += len(owed) - 1
        if requeued and _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_RETRY, worker=wid, tasks=requeued)

    # -- collapse and shutdown -----------------------------------------

    def finish_in_process(self, program: Program,
                          config: ClusterConfig) -> None:
        """Finish the frontier in-process after the pool collapsed.

        In-flight tasks are reclaimed and the dead pool dropped; every
        live lease is drained with it, since from here the coordinator
        is the only executor and any late remote result is stale by
        construction.  The in-process engine is the same
        :class:`_SubtreeWorker` stack the workers run, so semantics are
        identical; fault and pipe hooks are stripped (injected worker
        faults would kill the coordinator, and there is no pipe).  It
        records straight into the coordinator's nondet log.
        """
        self.frontier.extend(lease.task for lease in self.leases.drain())
        self.shutdown()
        self.by_wid.clear()
        self.steals.clear()
        self.reg.gauge("parallel.workers").set(0)
        self._inc("degraded_runs")
        if _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_DEGRADED,
                         pending=len(self.frontier))
        self.record("degraded", pending=len(self.frontier))
        local = _SubtreeWorker(
            program,
            dataclasses.replace(config, fault_hook=None, pipe_hook=None,
                                collect_trace=False),
            replay_log=self.nlog,
        )
        while self.frontier and self.remaining() != 0:
            task = self.frontier.pop()
            self.record("dispatch", task=task.to_record(), worker=-1)
            solutions, spilled, state, fresh = _serve_task(
                local, task, self.remaining(), -1,
            )
            # Its trace events went straight to this process's tracer:
            # an empty segment, nothing to splice and nothing lost.
            self.settle(-1, task, solutions, spilled, state, [], fresh)
            self.refresh()

    def shutdown(self, grace: float = 2.0) -> None:
        """Stop every worker; escalate poison -> terminate -> kill.

        Idle workers get the poison pill; busy ones are terminated at
        once (their tasks are lost by construction).  Each escalation
        stage shares one deadline across the pool, so shutdown latency
        is bounded by ~2 * grace however many workers are stuck, and
        the final blocking ``join`` after SIGKILL guarantees every
        local child is reaped — no zombies survive this call.
        External (joined) TCP workers have no local process: poisoning
        them asks them to exit and closing the endpoint severs the
        connection, which is all a remote peer can be given.
        """
        eps = [h.ep for h in self.by_wid.values()]
        for handle in self.by_wid.values():
            if handle.ep.alive() and not self.busy(handle):
                handle.ep.poison()
            else:
                # No trusted connection (or mid-task): go straight to
                # the signal.  terminate() checks the local process
                # itself — endpoint-level trust is irrelevant here, a
                # distrusted-but-running worker must still be stopped.
                handle.ep.terminate()
        deadline = self.clock() + grace
        for ep in eps:
            ep.join(timeout=max(0.0, deadline - self.clock()))
        for ep in eps:
            ep.terminate()
        deadline = self.clock() + grace
        for ep in eps:
            ep.join(timeout=max(0.0, deadline - self.clock()))
        for ep in eps:
            ep.kill_hard()
        for ep in eps:
            # SIGKILL cannot be caught: this join terminates, and it is
            # what actually reaps the local child (no zombie left
            # behind).  Endpoint close severs any remaining connection.
            ep.join()
            ep.close()


class ProcessParallelEngine:
    """Shard the extension frontier across real worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (Figure 2 draws four).
    strategy:
        Frontier discipline, ``"dfs"`` or ``"bfs"``; applied both to the
        coordinator's task frontier and to each worker's local subtree
        exploration.  The solution *set* is identical either way.
    batch_size:
        Tasks per dispatch; batching amortizes IPC, at the price of
        coarser work distribution.
    subtree_depth / task_step_budget:
        How much of a subtree a worker explores before spilling the
        remainder back (see :class:`ClusterConfig`).
    task_timeout:
        Per-task wall-clock limit in seconds.  A worker that makes no
        progress for this long is killed and its unreported tasks are
        retried elsewhere (None disables the timeout).
    max_task_retries:
        How many times a task lost to a crash or timeout is re-dispatched
        before being dropped (a drop marks the result not exhausted).
    fault_hook:
        Test-only fault injector run in workers (see :class:`ClusterConfig`).
    collect_trace:
        Whether workers buffer their trace events and ship them back for
        merging into the coordinator's trace.  ``None`` (the default)
        follows the coordinator's tracer: collection is on exactly when
        a sink is attached at :meth:`run` time.  Passing ``False`` while
        the coordinator traces drops every worker-side event — the
        engine then warns and counts the losses in
        ``parallel.trace_dropped`` rather than losing them silently.
    verify:
        Static-analysis gate run on each guest before sharding: ``"off"``
        (default), ``"warn"`` or ``"strict"``.  Strict mode refuses
        uncertified programs — worker rehydration replays decision
        prefixes, so an uncertified guest can diverge mid-replay.  In
        every analyzed mode the analyzer's nondeterminism sites are
        shipped to the workers, so a runtime
        :class:`~repro.core.errors.ReplayDivergenceError` cites the
        static verdict for the diverging site.
    journal:
        Path of a write-ahead run journal (see
        :mod:`repro.core.journal`).  Every dispatch, completion, spill,
        solution and quarantine is logged durably, making the run
        resumable after the *coordinator* dies — the frontier and found
        solutions are rebuilt from decision prefixes, and only the
        missing subtrees are re-explored.  ``None`` disables journaling.
    resume:
        Resume an interrupted run from *journal* instead of starting
        fresh.  The journaled program digest and analyzer certificate
        state must match the program being run
        (:class:`~repro.core.errors.ResumeMismatchError` otherwise).
    fsync:
        Journal durability policy: ``"always"``, ``"batch"`` (default)
        or ``"off"``.
    supervisor:
        :class:`~repro.core.supervisor.SupervisorPolicy` (respawn
        backoff, poison threshold, slot failure limit, and the
        ``min_workers`` graceful-degradation floor: below it the
        remaining frontier is finished on an in-process engine instead
        of aborting the run).
    chaos:
        A :class:`~repro.chaos.FaultPlan` wired into the three
        injection seams (worker fault hook, result-pipe hook, journal
        writer hook).  An explicitly passed *fault_hook* keeps
        precedence over the plan's worker faults.
    replay_mode:
        Record/replay of nondeterministic syscall outcomes: ``"off"``
        (default), ``"record"`` (record fresh outcomes, replay known
        ones) or ``"strict"`` (replay only).  In record mode an
        uncertified guest whose only nondeterminism is recordable
        (console input, clock, entropy — see
        :data:`repro.analysis.verifier.RECORDABLE_LINTS`) passes the
        strict verification gate, because the recorder makes its
        re-executions exact.  Recorded events are journaled (when a
        journal is configured) and the coordinator's merged log is
        exposed as :attr:`replay_log` after the run.
    replay_log:
        A :class:`~repro.core.recorder.NondetLog` of previously
        recorded events to seed the run with (e.g. recorded by a
        sequential engine, or loaded from a ``--replay-log`` file).
    input_script:
        Scripted stdin bytes for guests that read fd 0.
    hostfs:
        Backing files for guests that ``open`` host paths.  The store's
        snapshot is shipped to every worker, which rebuilds an
        identical :class:`~repro.libos.files.HostFS` — the store is
        immutable, so rehydrated prefixes (including ``sys_crash_*``
        enumeration prefixes) replay over the same initial durable
        state on every worker.
    status_port:
        Serve live run status over HTTP on ``127.0.0.1:<port>`` for the
        duration of :meth:`run`: ``GET /status`` returns the JSON
        :meth:`~repro.obs.status.RunStatus.snapshot`, ``GET /metrics``
        Prometheus text exposition.  ``0`` picks a free port (read
        ``engine.status_server.url``); ``None`` disables the server.
    status_log:
        Append periodic ``status.sample`` JSONL records (one full
        status snapshot each) to this path, consumable by
        ``repro.tools.top --status-log`` and ``trace_report``.
    status_interval:
        Seconds between status-log samples (and the floor of the
        coordinator's internal status refresh cadence).
    heartbeat_interval:
        Seconds between worker heartbeats.  ``None`` (default) means
        0.25 whenever any telemetry surface above is enabled, else off.
        Heartbeats also defer the per-task timeout while a worker's
        step counter demonstrably grows — a stalled worker cannot beat,
        so stalls still time out.
    flight_dir:
        Directory for flight-recorder post-mortems: each worker's 256
        most recent trace events (shipped inside heartbeats, so they
        survive ``kill -9``) are dumped to a JSONL file when the
        supervisor observes that worker crash or stall.
    transport:
        The wire between coordinator and workers: ``"pipe"`` (default;
        local worker processes over duplex multiprocessing pipes) or
        ``"tcp"`` (framed sockets via an asyncio acceptor; workers may
        additionally join elastically from other hosts/processes with
        ``run_guest --connect``).  Scheduling, supervision, journaling
        and chaos semantics are identical across transports — the
        differential battery pins that down.
    listen:
        TCP only: ``(host, port)`` to accept workers on.  Defaults to
        ``("127.0.0.1", 0)`` — loopback, ephemeral port; read
        :attr:`transport_address` once :meth:`run` is underway.
    lease_timeout:
        Seconds a dispatched task's lease lives without observed
        progress before the coordinator re-dispatches it (the late
        result, if any, is fenced off and discarded).  ``None``
        (default) derives 1.5 × *task_timeout* — the stall detector
        fires first and remains the primary recovery path; the lease is
        the backstop for results lost in flight and for partitioned
        workers that still look healthy.  When *task_timeout* is None,
        leases never expire (fencing still applies).
    heartbeat_timeout:
        TCP only: seconds of per-connection silence (workers ping ~1/s)
        after which the transport declares a connection half-open and
        reports the worker down.
    """

    def __init__(
        self,
        workers: int = 4,
        strategy: str = "dfs",
        batch_size: int = 4,
        subtree_depth: Optional[int] = None,
        task_step_budget: Optional[int] = 25_000,
        max_steps_per_extension: int = 5_000_000,
        max_solutions: Optional[int] = None,
        task_timeout: Optional[float] = 30.0,
        max_task_retries: int = 2,
        fault_hook: Optional[Callable[[PrefixTask], None]] = None,
        collect_trace: Optional[bool] = None,
        verify: str = "off",
        journal: Optional[str] = None,
        resume: bool = False,
        fsync: str = "batch",
        supervisor: Optional[SupervisorPolicy] = None,
        chaos=None,
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        input_script: Optional[bytes] = None,
        hostfs: Optional[HostFS] = None,
        status_port: Optional[int] = None,
        status_log: Optional[str] = None,
        status_interval: float = 0.5,
        heartbeat_interval: Optional[float] = None,
        flight_dir: Optional[str] = None,
        transport: str = "pipe",
        listen: Optional[tuple] = None,
        lease_timeout: Optional[float] = None,
        heartbeat_timeout: float = 5.0,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if transport not in ("pipe", "tcp"):
            raise ValueError(
                f"transport must be 'pipe' or 'tcp', got {transport!r}"
            )
        if listen is not None and transport != "tcp":
            raise ValueError("listen requires transport='tcp'")
        if lease_timeout is not None and lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if verify not in ("off", "warn", "strict"):
            raise ValueError(
                f"verify must be 'off', 'warn' or 'strict', got {verify!r}"
            )
        if replay_mode not in ("off", "record", "strict"):
            raise ValueError(
                f"replay_mode must be 'off', 'record' or 'strict', "
                f"got {replay_mode!r}"
            )
        if replay_log is not None and replay_mode == "off":
            raise ValueError("replay_log requires replay_mode != 'off'")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal path")
        if status_interval <= 0:
            raise ValueError("status_interval must be > 0")
        if heartbeat_interval is not None and heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.verify = verify
        #: Analysis report of the last verified guest (None under "off").
        self.last_report = None
        self.transport_name = transport
        self.listen = tuple(listen) if listen is not None else None
        #: ``(host, port)`` the TCP acceptor is bound to, set as soon as
        #: :meth:`run` starts listening (None for pipe transport) — what
        #: an external worker passes to ``run_guest --connect``.
        self.transport_address: Optional[tuple] = None
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.num_workers = workers
        self.strategy_name = strategy  # TaskFrontier validates the name
        self.batch_size = batch_size
        self.max_solutions = max_solutions
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self.collect_trace = collect_trace
        self.journal_path = journal
        self.resume = resume
        self.fsync = fsync
        self.chaos = chaos
        self.replay_mode = replay_mode
        #: After :meth:`run`: the merged nondet-event log of the whole
        #: run (seed events + everything workers recorded); None when
        #: replay is off.
        self.replay_log = (
            replay_log.copy() if replay_log is not None
            else (NondetLog() if replay_mode != "off" else None)
        )
        self.supervisor_policy = (
            supervisor if supervisor is not None else SupervisorPolicy()
        )
        self.status_port = status_port
        self.status_log = status_log
        self.status_interval = status_interval
        self.flight_dir = flight_dir
        #: True when any live-telemetry surface was requested; gates the
        #: coordinator's refresh work so telemetry-off runs pay nothing.
        self._telemetry = (
            status_port is not None or status_log is not None
            or flight_dir is not None or heartbeat_interval is not None
        )
        hb_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else (0.25 if self._telemetry else None)
        )
        #: Live model of the current/last :meth:`run` (always set by
        #: run; finalized to the exact end-of-run registry state).
        self.status: Optional[RunStatus] = None
        #: The HTTP exporter of the current run (``status_port`` only).
        self.status_server: Optional[StatusServer] = None
        #: The flight recorder of the current run (``flight_dir`` only);
        #: ``flight_recorder.dumps`` lists post-mortems written.
        self.flight_recorder: Optional[FlightRecorder] = None
        if chaos is not None and fault_hook is None:
            fault_hook = chaos.worker_hook
        self.config = ClusterConfig(
            strategy=strategy,
            max_steps_per_extension=max_steps_per_extension,
            subtree_depth=subtree_depth,
            task_step_budget=task_step_budget,
            fault_hook=fault_hook,
            pipe_hook=chaos.pipe_hook if chaos is not None else None,
            replay_mode=replay_mode,
            input_script=input_script,
            hostfs_files=(
                tuple(sorted(hostfs.snapshot_files().items()))
                if hostfs is not None else None
            ),
            hostfs_block_size=(
                hostfs.block_size if hostfs is not None
                else ClusterConfig.hostfs_block_size
            ),
            heartbeat_interval=hb_interval,
            flight_events=(
                _FLIGHT_EVENTS
                if flight_dir is not None and hb_interval is not None else 0
            ),
            steal_batch=batch_size,
        )
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self.registry = MetricsRegistry("cluster-engine")
        self._next_wid = 0

    # ------------------------------------------------------------------

    def run(self, guest: Union[str, Program]) -> SearchResult:
        program = assemble(guest) if isinstance(guest, str) else guest
        sites: Optional[tuple[tuple[int, str], ...]] = None
        if self.verify != "off":
            from repro.analysis.verifier import nondet_sites, verify_program

            self.last_report = verify_program(
                program, self.verify, replay_mode=self.replay_mode
            )
            sites = nondet_sites(self.last_report)
        self.registry.reset()
        stats = SearchStats(registry=self.registry)
        reg = self.registry

        # Trace propagation: workers collect iff the coordinator traces,
        # unless explicitly overridden.  An override to False while a
        # sink is attached means worker events are lost — make that loud.
        collect = (
            _TRACER.enabled if self.collect_trace is None
            else self.collect_trace
        )
        run_config = dataclasses.replace(
            self.config, collect_trace=collect, nondet_sites=sites
        )
        if _TRACER.enabled and not collect:
            warnings.warn(
                "tracing is enabled on the coordinator but workers are not "
                "collecting (collect_trace=False): worker-side trace events "
                "will be dropped",
                RuntimeWarning,
                stacklevel=2,
            )

        # -- journal: open fresh, or recover and resume -----------------
        span = next(_run_spans)
        recovered = None
        journal: Optional[JournalWriter] = None
        digest = program_digest(program)
        jhook = self.chaos.journal_hook if self.chaos is not None else None
        nlog = self.replay_log  # coordinator's merged nondet-event log
        root = PrefixTask(span=span)
        if self.resume:
            recovered = recover(self.journal_path)
            check_resume(recovered, digest, sites,
                         replay_mode=self.replay_mode)
            if nlog is not None and recovered.nondet_events:
                nlog.merge_records(recovered.nondet_events)
        if self.journal_path is not None:
            journal = JournalWriter(
                self.journal_path, fsync=self.fsync,
                start_epoch=recovered.last_epoch + 1 if recovered else 0,
                truncate_to=recovered.valid_bytes if recovered else None,
                fault_hook=jhook, registry=reg,
            )
        if recovered is not None:
            journal.append(
                "resume", span=span, pending=len(recovered.pending),
                solutions=len(recovered.solutions),
                skipped=recovered.skipped, torn=recovered.torn,
            )
        elif journal is not None:
            journal.append(
                "run_begin",
                version=JOURNAL_VERSION,
                program=digest,
                span=span,
                strategy=self.strategy_name,
                workers=self.num_workers,
                batch_size=self.batch_size,
                subtree_depth=self.config.subtree_depth,
                task_step_budget=self.config.task_step_budget,
                max_steps=self.config.max_steps_per_extension,
                max_solutions=self.max_solutions,
                replay_mode=self.replay_mode,
                transport=self.transport_name,
                lease_timeout=self.lease_timeout,
                certified=(None if sites is None else not sites),
                nondet_sites=(
                    None if sites is None
                    else [[pc, lint] for pc, lint in sites]
                ),
                root=root.to_record(),
            )

        # -- transport ---------------------------------------------------
        if self.transport_name == "tcp":
            host, port = self.listen if self.listen is not None else (
                "127.0.0.1", 0,
            )
            net_hook = (
                self.chaos.net_hook
                if self.chaos is not None
                and getattr(self.chaos, "has_net_faults", False)
                else None
            )
            transport = TcpTransport(
                self._ctx, host=host, port=port,
                worker_entry=_tcp_worker_entry, net_hook=net_hook,
                heartbeat_timeout=self.heartbeat_timeout,
                start_wid=self._next_wid,
            )
        else:
            transport = PipeTransport(
                self._ctx, _worker_main, start_wid=self._next_wid,
            )

        # -- the coordinator ---------------------------------------------
        #: Leases expire a bit *after* the stall detector would have
        #: fired: the stall path (which kills the worker) stays primary;
        #: lease expiry is the backstop for results lost in flight and
        #: for partitioned workers that still look healthy.
        lease_s = self.lease_timeout
        if lease_s is None and self.task_timeout is not None:
            lease_s = self.task_timeout * 1.5
        clock = time.monotonic
        leases = LeaseTable(
            duration=lease_s,
            start_fence=(
                recovered.last_fence + 1 if recovered is not None else 1
            ),
            clock=clock,
        )
        sup = WorkerSupervisor(self.num_workers, self.supervisor_policy,
                               clock=clock)
        coord = _Coordinator(self, transport, leases, sup, journal, clock,
                             span=span)
        if recovered is not None:
            for spath, status, text in recovered.solutions:
                coord.solutions.append(
                    Solution(value=(status, text), path=spath)
                )
            coord.resume_completed = set(recovered.completed_keys)
            coord.completed = set(recovered.completed_keys)
            for task, evidence in recovered.poisoned:
                sup.quarantine(task.key())
                coord.poisoned.append((task, evidence))
            coord.frontier.extend(recovered.pending)
        else:
            coord.frontier.push(root)
        self.status = coord.status
        self.flight_recorder = coord.flight
        server: Optional[StatusServer] = None
        logger: Optional[StatusLogger] = None
        if self.status_port is not None:
            server = StatusServer(coord.status, port=self.status_port).start()
        self.status_server = server

        try:
            transport.start(program, run_config)
            self.transport_address = transport.address
            if self.transport_name == "tcp" and _TRACER.enabled:
                transport.on_wire_event = coord.on_wire_event
            coord.start()
            if self.status_log is not None:
                logger = StatusLogger(
                    coord.status, self.status_log,
                    interval=self.status_interval,
                ).start()
            coord.run(program, run_config)
        finally:
            coord.shutdown()
            transport.close()
            # Worker ids stay unique across a coordinator's runs even
            # though each run builds a fresh transport.
            self._next_wid = transport._next_wid
            reg.gauge("parallel.workers").set(0)
            if journal is not None:
                journal.close()
            # Seal the status on every exit path (exceptions included):
            # uncommitted heartbeat states are dropped, so from here the
            # status metrics mirror the engine registry.
            self._finalize(coord)
            if logger is not None:
                logger.stop()
            if server is not None:
                server.stop()

        frontier = coord.frontier
        stats.peak_frontier = max(stats.peak_frontier, frontier.peak)
        stats.extra.update({
            "workers": self.num_workers,
            "transport": self.transport_name,
            "strategy_order": self.strategy_name,
            "tasks_poisoned": len(coord.poisoned),
            "degraded": bool(reg.counter("parallel.degraded_runs").value),
            "min_workers": self.supervisor_policy.min_workers,
            "lease_timeout": lease_s,
            "peak_task_frontier": frontier.peak,
            "trace_span": span,
        })
        stats.extra.update(
            (name, reg.counter("parallel." + name).value)
            for name in _EXTRA_COUNTERS
        )
        stats.extra.update({
            "guest_instructions": reg.counter("parallel.guest_steps").value,
            "snapshots_taken": reg.counter("snapshot.taken").value,
            "snapshots_restored": reg.counter("snapshot.restored").value,
            "frames_copied": reg.counter("mem.frames_copied").value,
        })
        if self.transport_name == "tcp":
            stats.extra["transport_stats"] = dict(transport.stats)
        if nlog is not None:
            stats.extra.update({
                "replay_mode": self.replay_mode,
                "nondet_events": len(nlog),
                "nondet_conflicts": nlog.conflicts,
            })
        if self.journal_path is not None:
            stats.extra.update({
                "journal": self.journal_path,
                "journal_records": reg.counter("journal.records").value,
                "journal_fsyncs": reg.counter("journal.fsyncs").value,
                "resumed": recovered is not None,
                "resume_pending": len(recovered.pending) if recovered else 0,
                "resume_solutions": (
                    len(recovered.solutions) if recovered else 0
                ),
                "journal_skipped": recovered.skipped if recovered else 0,
                "journal_torn": recovered.torn if recovered else 0,
                "resume_spills_filtered": reg.counter(
                    "parallel.resume_spills_filtered"
                ).value,
            })
        if coord.poisoned:
            stats.extra["poisoned_tasks"] = [
                {"task": task.to_record(), "evidence": evidence}
                for task, evidence in coord.poisoned
            ]
        if self._telemetry:
            stats.extra["heartbeats"] = reg.counter(
                "telemetry.heartbeats"
            ).value
            if server is not None:
                stats.extra["status_url"] = server.url
            if self.status_log is not None:
                stats.extra["status_log"] = self.status_log
            if coord.flight is not None:
                stats.extra["flight_dumps"] = list(coord.flight.dumps)
        # Re-seal after the peak_frontier gauge write above, so the
        # status metrics equal the registry's true final state exactly.
        self._finalize(coord)
        return SearchResult(
            solutions=coord.solutions,
            stats=stats,
            strategy=self.strategy_name,
            exhausted=coord.stop_reason is None,
            stop_reason=coord.stop_reason,
        )

    def _finalize(self, coord: _Coordinator) -> None:
        coord.status.finalize(
            self.registry.state_dict(), pending=len(coord.frontier),
            solutions=len(coord.solutions), health=coord.health(),
            stop_reason=coord.stop_reason, degraded=coord.degraded,
        )

"""The extension-stepping kernel every machine engine runs.

The paper has one mechanism: ``sys_guess`` snapshots and fans out, the
strategy picks an extension, restoring it sets ``%rax``, and
``sys_guess_fail`` discards it.  :class:`Stepper` is that mechanism,
written once.  It owns

* the candidate and in-flight extension shapes (:class:`Candidate`,
  :class:`Pending`);
* the loop that enters a vCPU for at most ``min(quantum, remaining
  per-extension budget)`` instructions and hands each exit to
  :meth:`LibOS.handle_exit <repro.libos.libos.LibOS.handle_exit>`;
* deterministic prefix replay — rehydrating a path by re-executing the
  program from its entry point and feeding recorded guess outcomes, the
  record/replay lever of user-space replay systems — with the one
  divergence check and its analyzer verdict;
* settling an extension (guess, fail, exit, kill, spill, preempt) in
  one place, which bumps :class:`SearchStats`, emits the ``search.*``
  event, records the solution and unpins the parent snapshot.

The engines are policies over it: :class:`MachineEngine` adds global
budgets and the transcript, :class:`ParallelMachineEngine` time-slices
one in-flight extension per vCPU over a shared tree and strategy, the
cluster's subtree worker adds prefix tasks, a spill predicate and the
frontier→task conversion, and :class:`ReplayMachineEngine` runs without
a snapshot manager, so every candidate is a decision prefix and every
extension rehydrates from the program start.

Budget semantics are the same everywhere: an extension retires at most
``max_steps_per_extension`` instructions, counted from its start (a
restore, or a replayed guess); a boundary reached on the last allowed
instruction is honoured, and a path still running when the budget is
spent is killed and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.errors import GuessError, ReplayDivergenceError
from repro.core.result import SearchStats, Solution
from repro.libos.libos import ExecState, LibOS
from repro.libos.syscalls import (
    ContinueAction,
    ExitAction,
    GuessAction,
    GuessFailAction,
    KillAction,
    StrategyAction,
)
from repro.mem.frames import FramePool
from repro.obs import events as _events
from repro.obs.trace import TRACER as _TRACER
from repro.search import Extension, Strategy, get_strategy
from repro.snapshot.snapshot import Snapshot
from repro.snapshot.tree import SnapshotTree
from repro.vmm.vcpu import VCpu, VmExitReason

_STEP_LIMIT = VmExitReason.STEP_LIMIT


@dataclass(frozen=True)
class PathOutput:
    """Console output of one finished path (completed, failed or killed)."""

    path: tuple[int, ...]
    data: bytes
    outcome: str  # "exit" | "fail" | "kill"

    @property
    def text(self) -> str:
        """Output decoded as UTF-8 (lazy: most paths are never read)."""
        return self.data.decode("utf-8", errors="replace")


class Candidate:
    """A partial candidate: the guess point its extensions restart from.

    ``fanouts`` are the fan-outs of the guesses along ``path`` and ``n``
    this guess's own, so any extension can be turned back into a
    replayable prefix.  ``snapshot`` is None for a prefix candidate,
    whose extensions rehydrate by replaying the path from the program
    start.  ``site`` is the guest pc just past the guess syscall.
    """

    __slots__ = ("snapshot", "path", "fanouts", "n", "console", "site")

    def __init__(self, snapshot: Optional[Snapshot], path: tuple[int, ...],
                 fanouts: tuple[int, ...], n: int, console, site: int):
        self.snapshot = snapshot
        self.path = path
        self.fanouts = fanouts
        self.n = n
        self.console = console
        self.site = site


class Pending:
    """An extension in flight on one vCPU.

    A run started from the program entry (``parent`` None) first
    replays its ``path``: ``fanouts`` are the recorded fan-outs and
    ``replay_left`` counts the guesses still to feed.
    """

    __slots__ = ("vcpu", "state", "path", "parent", "fanouts",
                 "replay_left", "steps", "replay_steps")

    def __init__(self, vcpu: VCpu, state: ExecState, path: tuple[int, ...],
                 parent: Optional[Candidate], fanouts: tuple[int, ...] = (),
                 replay_left: int = 0):
        self.vcpu = vcpu
        self.state = state
        self.path = path
        self.parent = parent
        self.fanouts = fanouts
        self.replay_left = replay_left
        #: Instructions charged to the current extension's budget.  The
        #: count restarts at every replayed guess, so once the prefix is
        #: replayed it is the run's fresh (non-replay) instructions.
        self.steps = 0
        #: Instructions spent replaying the prefix.
        self.replay_steps = 0


#: ``spill(path, fanouts, n, hints)``: True when the policy took the
#: choice point elsewhere instead of fanning it out locally.
SpillPolicy = Callable[[tuple, tuple, int, Optional[tuple]], bool]


class Stepper:
    """Run extensions of one guest to their boundaries.

    Parameters
    ----------
    libos / pool:
        The libOS that handles exits and the frame pool guests load into.
    vcpu:
        The default vCPU (time-sliced engines pass one per run).
    strategy:
        Registry name or instance; guests may switch it with
        ``sys_guess_strategy`` before their first guess.
    manager:
        Snapshot manager; None makes every candidate a decision prefix
        whose extensions rehydrate from the program start.
    quantum:
        Guest instructions per :meth:`run` call; None runs each
        extension to its boundary.  Time-sliced runs handle at most one
        exit per call and name their vCPU in trace events.
    """

    def __init__(
        self,
        libos: LibOS,
        pool: FramePool,
        vcpu: VCpu,
        strategy: Union[str, Strategy],
        manager=None,
        max_steps_per_extension: int = 5_000_000,
        quantum: Optional[int] = None,
        recorder=None,
    ):
        self.libos = libos
        self.pool = pool
        self.vcpu = vcpu
        self.strategy = (
            strategy if isinstance(strategy, Strategy) else get_strategy(strategy)
        )
        self.manager = manager
        self.tree = SnapshotTree(manager) if manager is not None else None
        self.max_steps_per_extension = max_steps_per_extension
        self.quantum = quantum
        self.recorder = recorder
        #: When False, guest ``sys_guess_strategy`` calls are acknowledged
        #: but ignored (the host or an external entity owns scheduling).
        self.allow_guest_strategy = True
        #: Policy hooks: the spill predicate, the analyzer's verdict on a
        #: divergence pc, and a callback between a run's syscalls.
        self.spill: Optional[SpillPolicy] = None
        self.verdict: Optional[Callable[[int], Optional[str]]] = None
        self.heartbeat: Optional[Callable[[], None]] = None
        #: Finished paths' console output, when the engine keeps it.
        self.transcript: Optional[list[PathOutput]] = None
        #: Guest instructions spent replaying prefixes, over the
        #: stepper's lifetime.
        self.replayed = 0
        #: The search in progress (see :meth:`begin`).
        self.program = None
        self.stats: Optional[SearchStats] = None
        self.solutions: list[Solution] = []
        self._locked = False

    def begin(self, program, stats: SearchStats) -> None:
        """Start a search of *program*, counting into *stats*."""
        self.program = program
        self.stats = stats
        self.solutions = []
        self._locked = False

    # -- starting runs -------------------------------------------------

    def boot(self, prefix: tuple[int, ...] = (), fanouts: tuple[int, ...] = (),
             vcpu: Optional[VCpu] = None) -> Pending:
        """Load the program afresh; the run replays *prefix* first."""
        if vcpu is None:
            vcpu = self.vcpu
        state, regs = self.libos.load(self.program, self.pool)
        vcpu.regs.load(regs.frozen())
        if self.recorder is not None:
            # Rehydration restarts at the root segment; nondet events
            # recorded along the prefix replay under their original keys.
            self.recorder.begin_segment(())
        self.stats.evaluations += 1
        return Pending(vcpu, state, prefix, None, fanouts, len(prefix))

    def start(self, ext: Extension, vcpu: Optional[VCpu] = None) -> Pending:
        """Restore *ext*'s candidate and prime it with the extension number."""
        cand: Candidate = ext.candidate
        if cand.snapshot is None:
            return self.boot(cand.path + (ext.number,),
                             cand.fanouts + (cand.n,), vcpu)
        if vcpu is None:
            vcpu = self.vcpu
        regs, space, files = self.manager.restore(cand.snapshot)
        vcpu.regs.load(regs)
        vcpu.regs.rax = ext.number
        path = cand.path + (ext.number,)
        if self.recorder is not None:
            self.recorder.begin_segment(path)
        self.stats.evaluations += 1
        if self.quantum is not None and _TRACER.enabled:
            _TRACER.emit(_events.PARALLEL_SCHEDULE, worker=vcpu.cpu_id,
                         ext=ext.number, depth=len(cand.path))
        return Pending(vcpu, ExecState(space, files, cand.console.fork_cow()),
                       path, cand)

    # -- the loop ------------------------------------------------------

    def run(self, p: Pending) -> Optional[str]:
        """Step *p* to its boundary and settle it.

        Returns ``"guess"``, ``"spill"``, ``"fail"``, ``"exit"`` or
        ``"kill"``; None when a time-sliced run is still in flight.
        """
        budget = self.max_steps_per_extension
        quantum = self.quantum
        vcpu = p.vcpu
        while True:
            limit = budget - p.steps
            if quantum is not None and quantum < limit:
                limit = quantum
            vcpu.attach(p.state.space)
            exit_event = vcpu.enter(max_steps=limit if limit > 1 else 1)
            steps = exit_event.steps
            p.steps += steps
            if p.replay_left:
                p.replay_steps += steps
                self.replayed += steps
            if (
                quantum is not None
                and exit_event.reason is _STEP_LIMIT
                and p.steps < budget
            ):
                # End of a timeslice, not a runaway guest: the extension
                # stays in flight and resumes on its vCPU's next turn.
                if _TRACER.enabled:
                    _TRACER.emit(_events.PARALLEL_PREEMPT,
                                 worker=vcpu.cpu_id, steps=p.steps)
                return None
            action = self.libos.handle_exit(exit_event, vcpu, p.state)
            if isinstance(action, ContinueAction):
                if p.steps >= budget:
                    return self._settle(p, "kill", reason="extension step "
                                        "budget exhausted")
                if self.heartbeat is not None:
                    self.heartbeat()
            elif isinstance(action, StrategyAction):
                self.select_strategy(action.name)
            elif isinstance(action, GuessAction):
                if not p.replay_left:
                    return self._guess(p, action)
                self._replay_guess(p, action.n)
            elif isinstance(action, GuessFailAction):
                return self._settle(p, "fail")
            elif isinstance(action, ExitAction):
                return self._settle(p, "exit", status=action.status)
            elif isinstance(action, KillAction):
                return self._settle(p, "kill", reason=action.reason)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled action {action!r}")
            if quantum is not None:
                return None

    def explore(self, stop: Callable[[], Optional[str]]) -> Optional[str]:
        """Run frontier extensions in strategy order until *stop* names
        a reason (returned) or the frontier is empty (None)."""
        while True:
            reason = stop()
            if reason is not None:
                return reason
            ext = self.strategy.next()
            if ext is None:
                return None
            self.run(self.start(ext))

    # -- boundaries ----------------------------------------------------

    def _replay_guess(self, p: Pending, n: int) -> None:
        """Answer a guess from the prefix being replayed."""
        pos = len(p.path) - p.replay_left
        if n != p.fanouts[pos]:
            raise self._divergence(
                p, f"nondeterministic guest: replayed guess had fan-out "
                f"{p.fanouts[pos]}, now {n}",
                expected=p.fanouts[pos], actual=n,
            )
        p.vcpu.regs.rax = p.path[pos]
        p.replay_left -= 1
        # Each replayed guess ends one extension of the original search,
        # so the next one starts with a full budget.
        p.steps = 0
        self.stats.replayed_decisions += 1
        if self.recorder is not None:
            self.recorder.begin_segment(p.path[:pos + 1])

    def _divergence(self, p: Pending, message: str,
                    **fields) -> ReplayDivergenceError:
        # rip already points past the 1-byte SYSCALL.
        pc = p.vcpu.regs.rip - 1
        return ReplayDivergenceError(
            message, prefix=p.path, position=len(p.path) - p.replay_left,
            pc=pc, verdict=self.verdict(pc) if self.verdict else None,
            **fields,
        )

    def _guess(self, p: Pending, action: GuessAction) -> str:
        """Settle a fresh guess: spill it, or make it a candidate (a
        snapshot, or a bare prefix without a manager) and hand its
        extensions to the strategy."""
        n = action.n
        hints = action.hints
        if hints is not None and len(hints) != n:
            raise GuessError("hint vector length does not match fan-out")
        if n == 0:
            # A zero-fanout guess is a dead end, exactly like sys_guess_fail.
            return self._settle(p, "fail")
        parent = p.parent
        fanouts = p.fanouts if parent is None else parent.fanouts + (parent.n,)
        if self.spill is not None and self.spill(p.path, fanouts, n, hints):
            if _TRACER.enabled:
                self._emit(_events.SEARCH_SPILL, p, n=n)
            self.retire(p)
            return "spill"
        self._locked = True
        site = p.vcpu.regs.rip
        if self.manager is None:
            cand = Candidate(None, p.path, fanouts, n, None, site)
            sid = None
        else:
            parent_snap = parent.snapshot if parent is not None else None
            snap = self.manager.take(
                p.state.space,
                regs=p.vcpu.regs.frozen(),
                files=p.state.files,
                parent=parent_snap if parent_snap and parent_snap.alive else None,
            )
            cand = Candidate(snap, p.path, fanouts, n,
                             p.state.console.fork_cow(), site)
            snap.meta["fanout"] = n
            snap.meta["path"] = p.path
            self.tree.add(snap)
            self.tree.pin(snap, n)
            sid = snap.sid
        self.stats.candidates += 1
        if _TRACER.enabled:
            self._emit(_events.SEARCH_GUESS, p, n=n, sid=sid)
        depth = len(p.path)
        self.strategy.add(
            Extension(
                cand,
                number=i,
                hint=hints[i] if hints is not None else None,
                depth=depth,
            )
            for i in range(n)
        )
        # The pre-guess execution is abandoned; the scheduler decides
        # which extension (not necessarily one of these) runs next.
        self.retire(p)
        return "guess"

    def _settle(self, p: Pending, outcome: str, status: int = 0,
                reason: Optional[str] = None) -> str:
        """End a path: count it, trace it, keep its output, free it."""
        if p.replay_left:
            raise self._divergence(
                p, "nondeterministic guest: path ended during replay of a "
                f"prefix of length {len(p.path)}",
            )
        stats = self.stats
        if outcome == "fail":
            stats.fails += 1
            if _TRACER.enabled:
                self._emit(_events.SEARCH_FAIL, p)
        elif outcome == "exit":
            stats.completions += 1
            if _TRACER.enabled:
                self._emit(_events.SEARCH_SOLUTION, p)
            self.solutions.append(
                Solution(value=(status, p.state.console.text), path=p.path)
            )
        else:
            stats.kills += 1
            stats.extra.setdefault("kill_reasons", []).append(reason)
            if _TRACER.enabled:
                self._emit(_events.SEARCH_KILL, p, reason=reason)
        if self.transcript is not None:
            self.transcript.append(
                PathOutput(p.path, p.state.console.data, outcome)
            )
        self.retire(p)
        return outcome

    def retire(self, p: Pending) -> None:
        """Free *p*'s execution state and release its parent's pin."""
        p.state.free()
        if p.parent is not None:
            self.tree.unpin(p.parent.snapshot)

    def _emit(self, etype: str, p: Pending, **fields) -> None:
        fields["depth"] = len(p.path)
        fields["path"] = list(p.path)
        fields["steps"] = p.steps
        if p.replay_steps:
            fields["replay_steps"] = p.replay_steps
        if self.quantum is not None:
            fields["worker"] = p.vcpu.cpu_id
        _TRACER.emit(etype, **fields)

    def select_strategy(self, name: str) -> None:
        """A guest's ``sys_guess_strategy``: allowed before its first guess."""
        if not self.allow_guest_strategy or name == self.strategy.name:
            return
        if self._locked:
            raise GuessError(
                f"cannot switch strategy to {name!r} after the first guess"
            )
        self.strategy = get_strategy(name)

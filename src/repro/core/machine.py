"""The machine engine: faithful system-level backtracking.

This is the reproduction of the paper's headline design.  Guests are
machine-code programs running behind the full Figure 2 stack:

* ``sys_guess`` takes a **lightweight immutable snapshot** (registers +
  COW address space + COW file table + console position) and fans out
  *n* candidate extension steps;
* the **search strategy** schedules which extension runs next; running
  one restores the snapshot in O(1) and sets the extension number in
  ``%rax`` exactly as §4 describes;
* ``sys_guess_fail`` discards the executing extension;
* ``exit`` (or ``hlt``) completes a path: the engine records the solution
  and keeps exploring, so a guest that simply terminates after printing
  its answer enumerates all answers — no bookkeeping in the guest.

Unlike the replay engine, restoring a candidate does **zero** guest
re-execution: the address space *is* the state.

The stepping itself is :class:`~repro.core.stepper.Stepper`; this engine
adds the policy around it: the static verifier gate, the global budgets
(evaluations, solutions, total instructions) and the stdout transcript.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.recorder import NondetLog, Recorder
from repro.core.result import SearchResult, SearchStats
from repro.core.stepper import PathOutput, Stepper
from repro.cpu.assembler import Program, assemble
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.interpose.policy import InterpositionPolicy
from repro.mem.frames import FramePool
from repro.obs.registry import MetricsRegistry
from repro.search import Strategy
from repro.snapshot.snapshot import SnapshotManager
from repro.vmm.vcpu import VCpu


class MachineEngine:
    """Explore an assembly guest's search space with real snapshots.

    Parameters
    ----------
    strategy:
        Strategy registry name or instance (guests may override it with
        ``sys_guess_strategy`` before their first guess).
    policy / hostfs:
        Interposition policy and backing files, passed to the libOS.
    max_steps_per_extension:
        Instruction budget for a single extension step (runaway guard).
    max_evaluations / max_solutions / max_total_steps:
        Optional global exploration budgets.
    pool_limit:
        Optional bound on live physical frames (simulated RAM size).
    verify:
        Static-analysis gate run on each guest before execution:
        ``"off"`` (default, pre-verifier behaviour), ``"warn"``
        (analyze, warn on findings, run anyway) or ``"strict"``
        (refuse programs with error-severity findings or without the
        determinism certificate — unless record/replay covers the
        nondeterminism, see ``replay_mode``).
    replay_mode:
        ``"off"`` (default), ``"record"`` (record nondeterministic
        syscall outcomes on first execution, replay recorded ones) or
        ``"strict"`` (replay only; missing events raise
        :class:`~repro.core.errors.ReplayDivergenceError`).
    replay_log:
        A :class:`~repro.core.recorder.NondetLog` of previously recorded
        events to replay from (and, in record mode, add to).
    recorder:
        An externally owned :class:`~repro.core.recorder.Recorder` to
        use instead of building one — how cluster workers share one
        recorder across the engines they drive.  Overrides
        ``replay_mode``/``replay_log``.
    input:
        Scripted stdin for guests that read fd 0 (passed to the libOS).
    """

    def __init__(
        self,
        strategy: Union[str, Strategy] = "dfs",
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_extension: int = 5_000_000,
        max_evaluations: Optional[int] = None,
        max_solutions: Optional[int] = None,
        max_total_steps: Optional[int] = None,
        pool_limit: Optional[int] = None,
        snapshot_mode: str = "cow",
        verify: str = "off",
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        recorder: Optional[Recorder] = None,
        input=None,
    ):
        if verify not in ("off", "warn", "strict"):
            raise ValueError(
                f"verify must be 'off', 'warn' or 'strict', got {verify!r}"
            )
        self.verify = verify
        if replay_mode not in ("off", "record", "strict"):
            raise ValueError(
                f"replay_mode must be 'off', 'record' or 'strict', "
                f"got {replay_mode!r}"
            )
        if recorder is not None:
            self.recorder: Optional[Recorder] = recorder
            self.replay_mode = recorder.mode
        elif replay_mode != "off":
            self.recorder = Recorder(replay_mode, log=replay_log)
            self.replay_mode = replay_mode
        else:
            self.recorder = None
            self.replay_mode = "off"
        #: Analysis report of the last verified guest (None under "off").
        self.last_report = None
        if strategy == "coverage":
            # S2E-style coverage-optimized exploration: prefer extensions
            # whose (guess site, branch number) has not been taken yet.
            from repro.search import CoverageStrategy

            strategy = CoverageStrategy(
                coverage_key=lambda ext: (ext.candidate.site, ext.number)
            )
        self.libos = LibOS(policy=policy, hostfs=hostfs, input=input)
        self.libos.dispatcher.nondet = self.recorder
        self.max_evaluations = max_evaluations
        self.max_solutions = max_solutions
        self.max_total_steps = max_total_steps
        self.pool = FramePool(limit=pool_limit)
        #: One registry for the whole engine: snapshot lifecycle and
        #: search counters share it, so a single ``as_dict()`` captures
        #: the run (each engine instance gets its own namespace).
        self.registry = MetricsRegistry("machine-engine")
        self.manager = self._snapshot_manager(snapshot_mode)
        self.snapshot_mode = snapshot_mode
        self.vcpu = VCpu()
        self.stepper = Stepper(
            self.libos, self.pool, self.vcpu, strategy, manager=self.manager,
            max_steps_per_extension=max_steps_per_extension,
            recorder=self.recorder,
        )
        self.tree = self.stepper.tree
        #: Console output of every finished path, in finish order.  This
        #: is the "stdout transcript": Figure 1's print-then-fail pattern
        #: lands here even though failed paths produce no Solution.
        self.transcript: list[PathOutput] = []

    def _snapshot_manager(self, snapshot_mode: str):
        if snapshot_mode == "cow":
            return SnapshotManager(self.pool, registry=self.registry)
        if snapshot_mode == "eager":
            # The §3 naive-fork baseline: full copies per take/restore.
            from repro.baselines.eager import EagerSnapshotManager

            return EagerSnapshotManager(self.pool, registry=self.registry)
        if snapshot_mode == "dirty-eager":
            # DESIGN.md §5 ablation: pre-copy the dirty working set at
            # take time instead of faulting per page afterwards.
            from repro.baselines.dirty import DirtyEagerSnapshotManager

            return DirtyEagerSnapshotManager(self.pool, registry=self.registry)
        raise ValueError(f"unknown snapshot_mode {snapshot_mode!r}")

    # ------------------------------------------------------------------

    def run(self, guest: Union[str, Program]) -> SearchResult:
        """Assemble (if needed), load, and explore *guest* exhaustively."""
        program = assemble(guest) if isinstance(guest, str) else guest
        if self.verify != "off":
            from repro.analysis.verifier import verify_program

            self.last_report = verify_program(
                program, self.verify, replay_mode=self.replay_mode
            )
        stats = SearchStats(registry=self.registry)
        stepper = self.stepper
        stepper.begin(program, stats)
        self.transcript = stepper.transcript = []
        stepper.run(stepper.boot())
        stop_reason = stepper.explore(self._budget_spent)
        stepper.strategy.drain()
        stats.peak_frontier = stepper.strategy.stats.peak_frontier
        stats.extra.update(self._machine_stats())
        return SearchResult(
            solutions=stepper.solutions,
            stats=stats,
            strategy=stepper.strategy.name,
            exhausted=stop_reason is None,
            stop_reason=stop_reason,
        )

    def _budget_spent(self) -> Optional[str]:
        """The global budget that ends the search now, if any."""
        stepper = self.stepper
        if (
            self.max_solutions is not None
            and len(stepper.solutions) >= self.max_solutions
        ):
            return "max_solutions"
        if (
            self.max_evaluations is not None
            and stepper.stats.evaluations >= self.max_evaluations
        ):
            return "max_evaluations"
        if (
            self.max_total_steps is not None
            and self.vcpu.vmcs.guest_instructions >= self.max_total_steps
        ):
            return "max_total_steps"
        return None

    #: When False, guest ``sys_guess_strategy`` calls are acknowledged
    #: but ignored — used by externally-controlled sessions, where the
    #: external entity owns scheduling (§3.1).
    @property
    def allow_guest_strategy(self) -> bool:
        return self.stepper.allow_guest_strategy

    @allow_guest_strategy.setter
    def allow_guest_strategy(self, allow: bool) -> None:
        self.stepper.allow_guest_strategy = allow

    def _machine_stats(self) -> dict:
        """Cost counters from every layer, for benches and EXPERIMENTS.md."""
        vmcs = self.vcpu.vmcs
        replay = (
            {
                "nondet_recorded": self.recorder.recorded,
                "nondet_replayed": self.recorder.replayed,
            }
            if self.recorder is not None
            else {}
        )
        manager = self.manager
        snapshots = (
            {
                "snapshots_taken": manager.stats.taken,
                "snapshots_restored": manager.stats.restored,
                "snapshots_peak_live": manager.stats.peak_live,
            }
            if manager is not None
            else {}
        )
        return {
            **replay,
            "vm_exits": vmcs.exits,
            "vm_exit_counts": {
                reason.value: count for reason, count in vmcs.exit_counts.items()
            },
            "guest_instructions": vmcs.guest_instructions,
            **snapshots,
            "frames_live": self.pool.live_frames,
            "frames_peak": self.pool.peak_live_frames,
            "frames_copied": self.pool.stats.copied,
            "file_stats": self.libos.file_stats.as_dict(),
            "syscall_counts": dict(self.libos.dispatcher.counts),
        }

    # ------------------------------------------------------------------

    @property
    def strategy_name(self) -> str:
        return self.stepper.strategy.name

    def solutions_text(self, result: SearchResult) -> list[str]:
        """Console text of each completed path (convenience accessor)."""
        return [value[1] for value in result.solution_values]

    def failed_output(self) -> list[str]:
        """Output of failed paths (Figure 1's print-then-fail boards)."""
        return [p.text for p in self.transcript if p.outcome == "fail" and p.text]

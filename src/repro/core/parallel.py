"""Parallel extension evaluation (the multi-vCPU half of Figure 2).

Figure 2 draws one "extension eval" box per CPU core: "the libOS runs as
a single multi-threaded process, with the number of threads typically
corresponding to the number of hardware threads", each thread evaluating
a different candidate extension.  §3 also contrasts sequential DFS with
"a parallel depth-first-search strategy [that] might simply fork without
waiting".

This engine simulates that: *k* logical workers each own a vCPU and an
in-flight extension; the scheduler round-robin time-slices them (a quantum
of guest instructions per turn), so many extension evaluations are live
simultaneously over the same snapshot tree.  Because the simulator is
single-threaded Python, this is concurrency rather than parallelism — but
it exercises precisely the property that makes the design parallel-safe:
**in-flight executions forked from the same snapshot share pages and
never observe each other's writes**.  Worker-occupancy statistics show
the available speedup on real hardware.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.result import SearchResult, SearchStats
from repro.core.stepper import Pending, Stepper
from repro.cpu.assembler import Program, assemble
from repro.interpose.policy import InterpositionPolicy
from repro.libos.files import HostFS
from repro.libos.libos import LibOS
from repro.mem.frames import FramePool
from repro.obs.registry import MetricsRegistry
from repro.search import Strategy
from repro.snapshot.snapshot import SnapshotManager
from repro.vmm.vcpu import VCpu


class ParallelMachineEngine:
    """Round-robin multi-worker exploration over shared snapshots.

    Each logical core is a vCPU with at most one in-flight extension;
    all of them step through one :class:`~repro.core.stepper.Stepper`,
    so they share its snapshot tree and strategy.  A turn is one
    quantum (or one VM exit, whichever comes first) per busy core.

    Parameters
    ----------
    workers:
        Number of logical cores (Figure 2 draws four).
    quantum:
        Guest instructions per scheduling turn per worker.
    strategy:
        Which extension a freed worker picks up next.  With DFS this is
        the paper's parallel-DFS; BFS gives frontier-parallel search.
    """

    def __init__(
        self,
        workers: int = 4,
        quantum: int = 500,
        strategy: Union[str, Strategy] = "dfs",
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_extension: int = 5_000_000,
        max_solutions: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.quantum = quantum
        self.libos = LibOS(policy=policy, hostfs=hostfs)
        self.pool = FramePool()
        self.registry = MetricsRegistry("parallel-engine")
        self.manager = SnapshotManager(self.pool, registry=self.registry)
        self.max_solutions = max_solutions
        icache: dict = {}
        self.vcpus = [VCpu(cpu_id=i, icache=icache) for i in range(workers)]
        self.stepper = Stepper(
            self.libos, self.pool, self.vcpus[0], strategy,
            manager=self.manager,
            max_steps_per_extension=max_steps_per_extension,
            quantum=quantum,
        )
        self.tree = self.stepper.tree
        #: Peak number of simultaneously busy workers (occupancy proof).
        self.peak_busy = 0

    # ------------------------------------------------------------------

    def run(self, guest: Union[str, Program]) -> SearchResult:
        program = assemble(guest) if isinstance(guest, str) else guest
        stats = SearchStats(registry=self.registry)
        stepper = self.stepper
        stepper.begin(program, stats)
        stop_reason: Optional[str] = None
        lanes: list[Optional[Pending]] = [None] * len(self.vcpus)
        lanes[0] = stepper.boot()
        busy_turns = idle_turns = 0

        while True:
            if (
                self.max_solutions is not None
                and len(stepper.solutions) >= self.max_solutions
            ):
                stop_reason = "max_solutions"
                break

            # Refill idle workers from the strategy frontier.
            for i, vcpu in enumerate(self.vcpus):
                if lanes[i] is not None:
                    continue
                ext = stepper.strategy.next()
                if ext is None:
                    break
                lanes[i] = stepper.start(ext, vcpu)

            busy = [i for i, lane in enumerate(lanes) if lane is not None]
            self.peak_busy = max(self.peak_busy, len(busy))
            if not busy:
                break
            busy_turns += len(busy)
            idle_turns += len(lanes) - len(busy)
            for i in busy:
                if stepper.run(lanes[i]) is not None:
                    lanes[i] = None

        for lane in lanes:
            if lane is not None:
                stepper.retire(lane)
        stepper.strategy.drain()
        stats.peak_frontier = stepper.strategy.stats.peak_frontier
        total_turns = busy_turns + idle_turns
        stats.extra.update({
            "workers": len(self.vcpus),
            "peak_busy_workers": self.peak_busy,
            "occupancy": busy_turns / total_turns if total_turns else 0.0,
            "guest_instructions": sum(
                v.vmcs.guest_instructions for v in self.vcpus
            ),
            "vm_exits": sum(v.vmcs.exits for v in self.vcpus),
            "snapshots_taken": self.manager.stats.taken,
            "snapshots_peak_live": self.manager.stats.peak_live,
            "frames_peak": self.pool.peak_live_frames,
        })
        return SearchResult(
            solutions=stepper.solutions,
            stats=stats,
            strategy=stepper.strategy.name,
            exhausted=stop_reason is None,
            stop_reason=stop_reason,
        )

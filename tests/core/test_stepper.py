"""The shared extension-stepping kernel: one budget meaning everywhere.

Every machine engine steps through :class:`repro.core.stepper.Stepper`,
so a per-extension budget must cut a path at the same instruction on
all of them, and prefix replay must charge each replayed extension its
own budget rather than the whole prefix one.
"""

import pytest

from repro.core.cluster import ProcessParallelEngine
from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.replay_machine import ReplayMachineEngine
from repro.core.sysno import SYS_EXIT, SYS_WRITE
from repro.obs.profile import build_profile
from repro.obs.trace import TRACER
from repro.workloads.nqueens import nqueens_asm

#: Eight instructions: the write syscall retires as step 5, the exit
#: syscall as step 8.
WRITE_THEN_EXIT = f"""
.data
msg: .ascii "x"
.text
    mov rax, {SYS_WRITE}
    mov rdi, 1
    mov rsi, msg
    mov rdx, 1
    syscall
    mov rax, {SYS_EXIT}
    mov rdi, 0
    syscall
"""

ENGINES = {
    "snapshot": lambda k: MachineEngine(max_steps_per_extension=k),
    "replay": lambda k: ReplayMachineEngine(max_steps_per_extension=k),
    "parallel": lambda k: ParallelMachineEngine(
        workers=2, quantum=64, max_steps_per_extension=k
    ),
    "process": lambda k: ProcessParallelEngine(
        workers=1, max_steps_per_extension=k
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("budget", range(1, 9))
def test_budget_boundary_is_the_same_on_every_engine(engine, budget):
    result = ENGINES[engine](budget).run(WRITE_THEN_EXIT)
    # The exit on the last allowed instruction is honoured; any smaller
    # budget kills the path, and the kill is counted.
    expected = (1, 0) if budget >= 8 else (0, 1)
    assert (len(result.solutions), result.stats.kills) == expected


@pytest.mark.parametrize("budget", [100, 150, 200])
def test_replayed_prefix_restarts_the_budget_at_each_guess(budget):
    sequential = MachineEngine(max_steps_per_extension=budget).run(
        nqueens_asm(6)
    )
    # subtree_depth=1 makes every task a replayed prefix, so each path's
    # extensions are re-executed once per task below them.
    cluster = ProcessParallelEngine(
        workers=1, subtree_depth=1, max_steps_per_extension=budget
    ).run(nqueens_asm(6))
    assert sorted(s.path for s in cluster.solutions) == sorted(
        s.path for s in sequential.solutions
    )
    assert cluster.stats.kills == sequential.stats.kills
    assert (
        cluster.stats.extra["guest_instructions"]
        == sequential.stats.extra["guest_instructions"]
    )


def test_replay_engine_trace_splits_fresh_and_replayed_steps():
    with TRACER.capture() as sink:
        replay = ReplayMachineEngine().run(nqueens_asm(5))
    snapshot = MachineEngine().run(nqueens_asm(5))
    profile = build_profile(sink.events)
    # The fresh share is exactly the snapshot engine's work; the rest of
    # the replay engine's instructions are re-execution.
    assert profile.total_steps == snapshot.stats.extra["guest_instructions"]
    assert (
        profile.total_steps + profile.total_replay_steps
        == replay.stats.extra["guest_instructions"]
    )
    assert profile.root.cum["solutions"] == len(replay.solutions) == 10

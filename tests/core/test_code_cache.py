"""The decode and block caches belong to the program being run.

An engine reused for a second program must not execute the first
program's cached translations: both programs below put different code at
the same addresses, so a cache keyed only by rip returns the first
program's exit status for the second.
"""

import pytest

from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.core.sysno import SYS_EXIT


def exits_with(status: int) -> str:
    return f"""
        mov rdi, {status}
        mov rax, {SYS_EXIT}
        syscall
    """


@pytest.mark.parametrize("engine", [
    MachineEngine,
    lambda: ParallelMachineEngine(workers=2, quantum=64),
], ids=["machine", "parallel"])
def test_reused_engine_runs_the_new_program(engine):
    eng = engine()
    assert eng.run(exits_with(3)).solution_values == [(3, "")]
    assert eng.run(exits_with(7)).solution_values == [(7, "")]
    assert eng.run(exits_with(3)).solution_values == [(3, "")]

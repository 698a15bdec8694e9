"""Public API: system-level backtracking for guest programs.

Three engines implement the paper's three-syscall interface
(``sys_guess_strategy`` / ``sys_guess`` / ``sys_guess_fail``) over
different substrates:

* :class:`ReplayEngine` (:mod:`repro.core.replay`) -- runs *Python
  callables* as guests.  CPython control state cannot be snapshotted, so
  partial candidates are decision prefixes and restoring one replays the
  guest deterministically (documented substitution; see DESIGN.md §2).
  This is the convenient everyday API and also serves as the
  "re-execution" baseline in benchmarks.
* :class:`MachineEngine` (:mod:`repro.core.machine`) -- runs *assembly
  guests* on the simulated CPU behind the full Figure 2 stack: VM exits,
  libOS, true O(1) lightweight snapshots with COW restore.  This is the
  faithful reproduction of the paper's design.  It and the other
  machine-guest engines (parallel, replay, process) share one
  extension-stepping kernel, :mod:`repro.core.stepper`.
* :class:`PosixEngine` (:mod:`repro.core.posix`) -- runs Python guests
  with genuine kernel copy-on-write via ``os.fork`` (the §3 approach the
  paper critiques, made safe enough for demos).

All engines accept the same guest programming model and return the same
:class:`SearchResult`.
"""

from repro.core.errors import (
    BudgetExceeded,
    GuessError,
    GuessFail,
    SearchError,
)
from repro.core.replay import ReplayEngine, SysAPI
from repro.core.result import SearchResult, Solution
from repro.core.sysno import (
    SYS_BRK,
    SYS_CLOSE,
    SYS_EXIT,
    SYS_GUESS,
    SYS_GUESS_FAIL,
    SYS_GUESS_HINT,
    SYS_GUESS_STRATEGY,
    SYS_OPEN,
    SYS_READ,
    SYS_WRITE,
    STRATEGY_IDS,
)

_LAZY_ENGINES = {
    "MachineEngine": ("repro.core.machine", "MachineEngine"),
    "ParallelMachineEngine": ("repro.core.parallel", "ParallelMachineEngine"),
    "ReplayMachineEngine": ("repro.core.replay_machine", "ReplayMachineEngine"),
    "PosixEngine": ("repro.core.posix", "PosixEngine"),
    "InteractiveSearch": ("repro.core.interactive", "InteractiveSearch"),
}


def __getattr__(name: str):
    """Lazily expose the machine-guest engines.

    They sit behind ``__getattr__`` because they import the full stack
    (libos -> vmm -> cpu), which itself imports :mod:`repro.core.sysno`;
    eager imports here would create a cycle during package init.
    """
    target = _LAZY_ENGINES.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module_name, attr = target
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "BudgetExceeded",
    "InteractiveSearch",
    "MachineEngine",
    "ParallelMachineEngine",
    "PosixEngine",
    "ReplayMachineEngine",
    "GuessError",
    "GuessFail",
    "ReplayEngine",
    "STRATEGY_IDS",
    "SYS_BRK",
    "SYS_CLOSE",
    "SYS_EXIT",
    "SYS_GUESS",
    "SYS_GUESS_FAIL",
    "SYS_GUESS_HINT",
    "SYS_GUESS_STRATEGY",
    "SYS_OPEN",
    "SYS_READ",
    "SYS_WRITE",
    "SearchError",
    "SearchResult",
    "Solution",
    "SysAPI",
]

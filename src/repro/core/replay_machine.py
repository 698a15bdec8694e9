"""Replay-based exploration of machine guests (the no-snapshot baseline).

This engine runs the *same assembly guests* as :class:`MachineEngine`
but without snapshots: a partial candidate is a decision prefix, and
evaluating an extension re-executes the guest binary from its entry
point, feeding recorded guess outcomes until the new territory begins.
It is the machine engine's stepper with no snapshot manager, so the
prefix replay is the same one the cluster workers rehydrate with.

It exists as the baseline the snapshot engine is measured against in
E3/E6: replay cost grows with (work per level x depth), which is exactly
the re-execution overhead lightweight snapshots eliminate.  Semantics
are identical — the engines must produce the same solution sets.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.machine import MachineEngine
from repro.core.recorder import NondetLog, Recorder
from repro.interpose.policy import InterpositionPolicy
from repro.libos.files import HostFS
from repro.search import Strategy


class ReplayMachineEngine(MachineEngine):
    """Machine-guest exploration by deterministic re-execution.

    ``max_steps_per_extension`` bounds each extension, not the whole
    re-executed path: the budget restarts at every replayed guess.
    """

    def __init__(
        self,
        strategy: Union[str, Strategy] = "dfs",
        policy: Optional[InterpositionPolicy] = None,
        hostfs: Optional[HostFS] = None,
        max_steps_per_extension: int = 5_000_000,
        max_evaluations: Optional[int] = None,
        max_solutions: Optional[int] = None,
        replay_mode: str = "off",
        replay_log: Optional[NondetLog] = None,
        recorder: Optional[Recorder] = None,
        input=None,
    ):
        super().__init__(
            strategy=strategy,
            policy=policy,
            hostfs=hostfs,
            max_steps_per_extension=max_steps_per_extension,
            max_evaluations=max_evaluations,
            max_solutions=max_solutions,
            replay_mode=replay_mode,
            replay_log=replay_log,
            recorder=recorder,
            input=input,
        )

    def _snapshot_manager(self, snapshot_mode: str) -> None:
        return None  # every candidate is a decision prefix

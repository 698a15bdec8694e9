"""Deterministic gates on translation work.

Translation is paid per program, not per extension: a block is compiled
once and then shared by every restore.  Both gates count work, not wall
time, so they cannot flake:

* ``blocks_translated`` (``MachineEngine`` stats) is the same for 5- and
  6-queens, which run the same code over about four times the
  extensions;
* it is at most twice the number of distinct instruction addresses the
  search executes: one one-instruction block per address (its first
  execution) plus at most one longer block starting there.
"""

import pytest

from repro.core.machine import MachineEngine
from repro.core.parallel import ParallelMachineEngine
from repro.vmm.vcpu import VCpu
from repro.workloads.nqueens import nqueens_asm


def executed_addresses(n):
    """Distinct rips a full ``nqueens_asm(n)`` search executes, observed
    one instruction per VM entry."""
    seen = set()
    enter = VCpu.enter

    def recording_enter(self, max_steps=None):
        assert max_steps == 1
        seen.add(self.regs.rip)
        return enter(self, max_steps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VCpu, "enter", recording_enter)
        ParallelMachineEngine(workers=1, quantum=1).run(nqueens_asm(n))
    return seen


@pytest.fixture(scope="module")
def runs():
    return {n: MachineEngine().run(nqueens_asm(n)) for n in (5, 6)}


class TestTranslationCost:
    def test_runs_are_correct(self, runs):
        assert len(runs[5].solutions) == 10
        assert len(runs[6].solutions) == 4
        evaluations = {n: r.stats.evaluations for n, r in runs.items()}
        assert evaluations[6] > 3 * evaluations[5]

    def test_translations_do_not_grow_with_extensions(self, runs):
        counts = {n: r.stats.extra["blocks_translated"] for n, r in runs.items()}
        assert counts[5] == counts[6] > 0

    @pytest.mark.parametrize("n", [5, 6])
    def test_translations_bounded_by_executed_addresses(self, runs, n):
        translated = runs[n].stats.extra["blocks_translated"]
        assert translated <= 2 * len(executed_addresses(n))

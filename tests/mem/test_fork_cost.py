"""Deterministic per-extension cost gates for the fork/restore path.

Each gate counts work, not wall time, so it cannot flake:

* ``registries_built`` -- :class:`MetricsRegistry` constructions inside
  one ``MachineEngine.run()``.  A restore used to build a fresh
  ``mem.*`` registry for every forked address space; now the count must
  not grow with the number of restores, so 5- and 6-queens (220 and 894
  restores) build the same number.
* ``retired_tlb_misses`` -- TLB misses summed over every retired
  extension's address space.  A fork seeds the child with the parent's
  read translations, so the whole search misses at most once per
  snapshot plus ``TLB_MISS_SLACK``; a cold TLB per restore misses on
  every page each extension touches.
"""

import pytest

from repro.core.machine import MachineEngine
from repro.libos.libos import ExecState
from repro.obs.registry import MetricsRegistry
from repro.workloads.nqueens import nqueens_asm

#: Misses allowed beyond one per snapshot taken (the loader's first
#: touches of code, data and stack pages).
TLB_MISS_SLACK = 16


def run_counted(n):
    """Run ``nqueens_asm(n)``; returns ``(result, registries_built,
    retired_tlb_misses)`` counted during ``run()`` only."""
    engine = MachineEngine()
    counts = {"registries_built": 0, "retired_tlb_misses": 0}
    registry_init = MetricsRegistry.__init__
    state_free = ExecState.free

    def counting_init(self, *args, **kwargs):
        counts["registries_built"] += 1
        registry_init(self, *args, **kwargs)

    def counting_free(state):
        counts["retired_tlb_misses"] += state.space.tlb.stats.misses
        state_free(state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MetricsRegistry, "__init__", counting_init)
        patch.setattr(ExecState, "free", counting_free)
        result = engine.run(nqueens_asm(n))
    return result, counts["registries_built"], counts["retired_tlb_misses"]


@pytest.fixture(scope="module")
def runs():
    return {n: run_counted(n) for n in (5, 6)}


class TestForkCost:
    def test_runs_are_correct(self, runs):
        assert len(runs[5][0].solutions) == 10
        assert len(runs[6][0].solutions) == 4
        restored = {n: r.stats.extra["snapshots_restored"] for n, (r, _, _) in runs.items()}
        assert restored[6] > restored[5]

    def test_registries_built_do_not_grow_with_restores(self, runs):
        assert runs[5][1] == runs[6][1]

    @pytest.mark.parametrize("n", [5, 6])
    def test_retired_tlb_misses_bounded_by_snapshots(self, runs, n):
        result, _, misses = runs[n]
        taken = result.stats.extra["snapshots_taken"]
        assert misses <= taken + TLB_MISS_SLACK

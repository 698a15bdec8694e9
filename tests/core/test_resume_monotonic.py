"""Journal epochs and fences stay monotonic across a kill at every record.

A resumed coordinator continues the journal at ``last_epoch + 1`` and
seeds its lease table at ``last_fence + 1``.  Were either restarted
lower, a record could be read back out of order, or a result granted
before the kill could match a fence granted after it and be accepted
twice.  This kills a small journaled run once before each of its
records, resumes it, and checks the whole file.
"""

import json

import pytest

from repro.chaos import FaultPlan
from repro.core.cluster import ProcessParallelEngine
from repro.core.errors import CoordinatorKilled
from repro.core.machine import MachineEngine
from repro.workloads.nqueens import nqueens_asm

GUEST = nqueens_asm(4)


def engine(journal, **kwargs):
    return ProcessParallelEngine(
        workers=2, task_step_budget=200, journal=journal, fsync="off",
        **kwargs,
    )


def solution_multiset(result):
    return sorted((s.path, s.value) for s in result.solutions)


def records(journal):
    with open(journal) as fh:
        return [json.loads(line) for line in fh]


def fences(recs):
    """Every fence a record carries (dispatches, expiries, stales)."""
    out = []
    for rec in recs:
        fence = rec.get("fence", rec.get("task", {}).get("fence"))
        if fence:
            out.append(fence)
    return out


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    journal = str(tmp_path_factory.mktemp("clean") / "run.journal")
    engine(journal).run(GUEST)
    return len(records(journal))


def test_kill_at_every_record_then_resume(tmp_path, clean):
    baseline = solution_multiset(MachineEngine().run(GUEST))
    assert clean > 10
    for k in range(1, clean):
        journal = str(tmp_path / f"run-{k}.journal")
        with pytest.raises(CoordinatorKilled):
            engine(journal, chaos=FaultPlan(coordinator_kill_epoch=k)).run(
                GUEST
            )
        before = records(journal)
        assert len(before) == k
        result = engine(journal, resume=True).run(GUEST)
        assert solution_multiset(result) == baseline, f"killed at {k}"

        recs = records(journal)
        epochs = [rec["epoch"] for rec in recs]
        assert epochs == sorted(set(epochs)), f"killed at {k}: {epochs}"
        after = [rec for rec in recs[k:] if rec["type"] == "dispatch"]
        if fences(before) and after:
            assert min(fences(after)) > max(fences(before)), (
                f"killed at {k}"
            )
